"""Fixture: key function reads only value fields (REPRO002 negative).

Reading ``ctx.engine`` outside a key function is also legal — the
boundary constrains what enters content keys, not what schedulers do.
"""


def node_key(ctx, config):
    return (config["kernel"], ctx.ensure_psd, ctx.normalize)


def pick_engine(ctx):
    return ctx.engine
