"""The message-level path, kept by the tests as an oracle for run_trial.

``deliver`` is the step every message-level test repeats: submit each
envelope to the shuffler its token names, release every shuffler's
multiset and analyze the tree.
"""

from shuffleguard.defense import analyze


def deliver(plan, tokens, envelopes):
    """Deliver ``envelopes`` to fresh inboxes for ``tokens`` and analyze
    the released multisets. Returns (estimate, report, rejected), where
    ``rejected`` counts the payloads whose token names no shuffler."""
    inboxes = tokens.make_inboxes()
    by_id = {inbox.token.id: inbox for inbox in inboxes.values()}
    rejected = 0
    for e in envelopes:
        if e.token in by_id:
            by_id[e.token].submit(e)
        else:
            rejected += e.payloads.size
    shuffled = {node: inbox.shuffle() for node, inbox in inboxes.items()}
    estimate, report = analyze(plan, shuffled)
    return estimate, report, rejected
