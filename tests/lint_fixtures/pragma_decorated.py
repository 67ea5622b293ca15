"""Pragma-placement regression: decorated and split-signature defs.

A finding in a ``def`` header anchors on its own line, which may sit
below a decorator stack or inside a multi-line signature.  A pragma
above the first decorator, or trailing the closing-paren line, must
reach it; this file lints clean.
"""

import random


def trace(fn):
    return fn


# repro: lint-ok[D101] fixture: comment-above-decorator placement
@trace
def drive_decorated(graph, metrics, jitter=random.random()):
    return {}


@trace
def drive_split(
    graph,
    metrics,
    jitter=random.random(),
):  # repro: lint-ok[D101] fixture: closing-paren-line placement
    return {}
