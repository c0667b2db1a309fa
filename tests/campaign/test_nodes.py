"""Campaign DAG layer: node keys, validation, toposort, identity."""

import pytest

from repro.api import ExecutionContext
from repro.campaign import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    context_cache_record,
    node_key,
)
from repro.errors import CampaignError


def _node(name, deps=(), kind="t.kind", **params):
    return CampaignNode(
        name, kind, node_key(kind, params={"name": name, **params}), deps=deps
    )


# ---------------------------------------------------------------------- #
# node_key: exactly the value-relevant inputs enter the key
# ---------------------------------------------------------------------- #


def test_node_key_is_deterministic():
    kwargs = dict(fingerprint="fp", digest="dg", params={"seed": 0, "n": 3})
    assert node_key("cell", **kwargs) == node_key("cell", **kwargs)


@pytest.mark.parametrize(
    "change",
    [
        {"fingerprint": "other"},
        {"digest": "other"},
        {"params": {"seed": 1}},
    ],
)
def test_node_key_tracks_each_input(change):
    base = dict(fingerprint="fp", digest="dg", params={"seed": 0})
    assert node_key("cell", **base) != node_key("cell", **{**base, **change})
    assert node_key("cell", **base) != node_key("other-kind", **base)


def test_scheduling_context_fields_do_not_enter_the_key():
    # Engine, tile size, store and checkpointing are pinned to identical
    # results by the engine-equivalence tests, so moving a campaign to
    # another engine or store must key-match (skip), not recompute.
    a = ExecutionContext(engine="batched", tile_size=8, normalize=True)
    b = ExecutionContext(engine="strided", tile_size=64, normalize=True,
                         store="mem:elsewhere")
    assert node_key("cell", ctx=a) == node_key("cell", ctx=b)


def test_value_context_fields_change_the_key():
    base = ExecutionContext(normalize=True)
    assert node_key("cell", ctx=base) != node_key(
        "cell", ctx=base.replace(normalize=False)
    )
    assert node_key("cell", ctx=base) != node_key(
        "cell", ctx=base.replace(precision="float32")
    )


def test_context_cache_record_accepts_ctx_dict_and_none():
    ctx = ExecutionContext(engine="batched", normalize=True)
    from_ctx = context_cache_record(ctx)
    assert from_ctx == context_cache_record(ctx.to_record())
    assert "engine" not in from_ctx
    assert from_ctx["normalize"] is True
    assert set(context_cache_record(None)) == set(from_ctx)


def test_none_keys_like_the_default_context():
    # A campaign declared with no context and resumed by the CLI (which
    # passes execution_context()) must key-match, not recompute.
    kwargs = dict(fingerprint="f", digest="d")
    keyed_none = node_key("table4.cell", ctx=None, **kwargs)
    assert keyed_none == node_key("table4.cell", ctx=ExecutionContext(), **kwargs)
    assert keyed_none.startswith("7c16ed8c")  # pinned: CLI keys do not move
    assert context_cache_record(None) == {
        "normalize": None, "ensure_psd": None,
        "precision": "float64", "entropy": "eig",
    }


def test_parent_format_record_has_the_same_slice():
    # Records written while contexts had a ``backend`` field carry it as
    # "numpy"; it is not part of the value slice, so such a record keys
    # its node exactly like the context it rebuilds to.
    ctx = ExecutionContext(normalize=True, precision="float32")
    parent_record = dict(ctx.to_record(), backend="numpy")
    assert context_cache_record(parent_record) == context_cache_record(ctx)
    assert "backend" not in context_cache_record(parent_record)
    assert node_key("cell", ctx=parent_record) == node_key("cell", ctx=ctx)


# ---------------------------------------------------------------------- #
# CampaignNode / Campaign validation
# ---------------------------------------------------------------------- #


def test_node_rejects_blank_fields_and_unjsonable_payload():
    with pytest.raises(CampaignError):
        CampaignNode("", "kind", "key")
    with pytest.raises(CampaignError):
        CampaignNode("a", "", "key")
    with pytest.raises(CampaignError):
        CampaignNode("a", "kind", "")
    with pytest.raises(CampaignError):
        CampaignNode("a", "kind", "key", payload={"fn": object()})


def test_campaign_rejects_duplicate_names():
    with pytest.raises(CampaignError, match="duplicate"):
        Campaign("c", [_node("a"), _node("a")])


def test_campaign_rejects_unknown_dependency():
    with pytest.raises(CampaignError, match="unknown node"):
        Campaign("c", [_node("a", deps=("ghost",))])


def test_campaign_rejects_cycles():
    nodes = [_node("a", deps=("b",)), _node("b", deps=("a",))]
    with pytest.raises(CampaignError, match="cycle"):
        Campaign("c", nodes)


def test_campaign_rejects_empty():
    with pytest.raises(CampaignError):
        Campaign("c", [])


def test_unknown_node_lookup_raises():
    campaign = Campaign("c", [_node("a")])
    with pytest.raises(CampaignError):
        campaign.node("ghost")


# ---------------------------------------------------------------------- #
# Order and identity
# ---------------------------------------------------------------------- #


def test_toposort_respects_deps_and_declared_order():
    campaign = Campaign(
        "c",
        [
            _node("row", deps=("gram2", "gram1")),
            _node("gram1"),
            _node("gram2"),
        ],
    )
    assert [n.name for n in campaign.toposort()] == ["gram1", "gram2", "row"]
    # Declared order is preserved among ready peers and by iteration.
    assert [n.name for n in campaign] == ["row", "gram1", "gram2"]


def test_dependents_are_transitive():
    campaign = Campaign(
        "c",
        [_node("a"), _node("b", deps=("a",)), _node("c", deps=("b",)),
         _node("d")],
    )
    assert campaign.dependents("a") == ("b", "c")
    assert campaign.dependents("d") == ()


def test_campaign_id_tracks_node_keys():
    one = Campaign("c", [_node("a", seed=0)])
    same = Campaign("c", [_node("a", seed=0)])
    changed = Campaign("c", [_node("a", seed=1)])
    renamed = Campaign("other", [_node("a", seed=0)])
    assert one.campaign_id == same.campaign_id
    assert one.campaign_id != changed.campaign_id
    assert one.campaign_id != renamed.campaign_id


def test_plan_report_requires_renderer():
    campaign = Campaign("c", [_node("a")])
    with pytest.raises(CampaignError):
        CampaignPlan(campaign).report({})
    plan = CampaignPlan(campaign, render=lambda results: f"{len(results)} rows")
    assert plan.report({"a": {"v": 1}}) == "1 rows"
