"""The lint driver: walk files, run rules, apply suppressions + baseline.

The pipeline of one :func:`run_lint` call:

1. discover ``*.py`` files under the requested paths (repo-root
   relative, POSIX-normalised — finding paths are stable across
   machines and operating systems);
2. per file, parse once and hand the :class:`ModuleContext` to every
   module-scope rule; project-scope rules run once over the
   :class:`ProjectContext`;
3. drop findings an inline suppression covers, then report suppressions
   that covered nothing (rule ``REPRO000`` — a stale exemption is itself
   a finding);
4. split the remainder against the committed baseline into *new*
   (gating) and *grandfathered* (visible, accepted) findings.

Rules never see suppressions or the baseline; they just yield every
violation they can prove. All policy about which findings *matter* lives
here, in one place.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.devtools.lint.baseline import Baseline
from repro.devtools.lint.findings import UNUSED_SUPPRESSION_RULE, Finding
from repro.devtools.lint.registry import Rule, select_rules
from repro.devtools.lint.suppressions import (
    parse_suppressions,
    suppression_index,
)
from repro.errors import ValidationError


class ModuleContext:
    """One file as the module-scope rules see it."""

    def __init__(self, path: str, source: str) -> None:
        #: Repo-root-relative POSIX path ("src/repro/serve/jobs.py").
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self._tree: "ast.AST | None" = None

    @property
    def tree(self) -> ast.AST:
        if self._tree is None:
            try:
                self._tree = ast.parse(self.source, filename=self.path)
            except SyntaxError as exc:
                raise ValidationError(
                    f"lint cannot parse {self.path!r}: {exc}"
                ) from None
        return self._tree

    def in_repro_source(self) -> bool:
        """Whether this file is part of the library proper."""
        return self.path.startswith("src/repro/")

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: Rule, node: "ast.AST | int", message: str) -> Finding:
        """Build a Finding anchored at ``node`` (or a raw line number)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        col = 0 if isinstance(node, int) else getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.id,
            rule_name=rule.name,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )


@dataclass
class ProjectContext:
    """What the project-scope rules see: the root and the linted files."""

    root: str
    modules: "list[ModuleContext]" = field(default_factory=list)

    def read(self, relpath: str) -> "str | None":
        """The text of a repo file, or ``None`` when it does not exist."""
        target = os.path.join(self.root, relpath)
        if not os.path.exists(target):
            return None
        with open(target, encoding="utf-8") as handle:
            return handle.read()


@dataclass
class LintResult:
    """Everything one run produced, pre-sliced for the reporters."""

    new: "list[Finding]"
    grandfathered: "list[Finding]"
    baseline_problems: "list[str]"
    checked_files: int
    rules: "tuple[Rule, ...]"

    @property
    def gating(self) -> "list[Finding]":
        """The findings that make the run fail (new, non-baselined)."""
        return self.new


def discover_files(root: str, paths: "tuple[str, ...]") -> "list[str]":
    """Repo-relative ``*.py`` files under ``paths`` (files or trees)."""
    found: "list[str]" = []
    for requested in paths:
        absolute = os.path.join(root, requested)
        if os.path.isfile(absolute):
            found.append(os.path.relpath(absolute, root))
            continue
        if not os.path.isdir(absolute):
            raise ValidationError(
                f"lint path {requested!r} does not exist under {root!r}"
            )
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(
                        os.path.relpath(os.path.join(dirpath, filename), root)
                    )
    # De-duplicate while keeping discovery order deterministic.
    seen: "set[str]" = set()
    unique = []
    for path in found:
        normal = path.replace(os.sep, "/")
        if normal not in seen:
            seen.add(normal)
            unique.append(normal)
    return unique


def lint_source(
    source: str,
    *,
    path: str,
    rules: "tuple[Rule, ...] | None" = None,
) -> "list[Finding]":
    """Run the module-scope rules over in-memory ``source``.

    ``path`` is the *logical* repo-relative path the rules key their
    applicability on — the fixture tests lint checked-in violation
    samples under the paths of the modules whose contracts they break.
    Suppressions are honoured; unused ones are reported.
    """
    context = ModuleContext(path, source)
    active = rules if rules is not None else select_rules()
    raw: "list[Finding]" = []
    for rule in active:
        if rule.scope != "module":
            continue
        raw.extend(rule.check(context))
    return _apply_suppressions(context, raw)


def run_lint(
    *,
    root: str,
    paths: "tuple[str, ...]" = ("src/repro",),
    select: "tuple[str, ...] | None" = None,
    ignore: "tuple[str, ...] | None" = None,
    baseline: "Baseline | None" = None,
) -> LintResult:
    """Lint ``paths`` under ``root`` and split against the baseline."""
    rules = select_rules(select, ignore)
    module_rules = tuple(rule for rule in rules if rule.scope == "module")
    project_rules = tuple(rule for rule in rules if rule.scope == "project")
    project = ProjectContext(root=root)
    findings: "list[Finding]" = []
    files = discover_files(root, tuple(paths))
    for relpath in files:
        with open(os.path.join(root, relpath), encoding="utf-8") as handle:
            source = handle.read()
        context = ModuleContext(relpath, source)
        project.modules.append(context)
        raw = []
        for rule in module_rules:
            raw.extend(rule.check(context))
        findings.extend(_apply_suppressions(context, raw))
    for rule in project_rules:
        findings.extend(rule.check(project))
    findings.sort()
    active_baseline = baseline if baseline is not None else Baseline()
    new, grandfathered, _ = active_baseline.split(findings)
    return LintResult(
        new=new,
        grandfathered=grandfathered,
        baseline_problems=active_baseline.problems(findings),
        checked_files=len(files),
        rules=rules,
    )


def _apply_suppressions(
    context: ModuleContext, findings: "list[Finding]"
) -> "list[Finding]":
    suppressions = parse_suppressions(context.source)
    index = suppression_index(suppressions)
    kept: "list[Finding]" = []
    for finding in findings:
        suppressed = False
        for suppression in index.get(finding.line, ()):
            if finding.rule in suppression.rules:
                suppression.used.add(finding.rule)
                suppressed = True
        if not suppressed:
            kept.append(finding)
    for suppression in suppressions:
        if not suppression.rules:
            kept.append(
                Finding(
                    rule=UNUSED_SUPPRESSION_RULE,
                    rule_name="unused-suppression",
                    path=context.path,
                    line=suppression.comment_line,
                    message=(
                        "malformed repro-lint comment — the form is "
                        "'# repro-lint: ignore[REPRO00x]'"
                    ),
                    snippet=context.snippet(suppression.comment_line),
                )
            )
            continue
        for rule_id in suppression.unused_rules:
            kept.append(
                Finding(
                    rule=UNUSED_SUPPRESSION_RULE,
                    rule_name="unused-suppression",
                    path=context.path,
                    line=suppression.comment_line,
                    message=(
                        f"suppression for {rule_id} matches no finding — "
                        "remove it (stale exemptions hide regressions)"
                    ),
                    snippet=context.snippet(suppression.comment_line),
                )
            )
    return kept
