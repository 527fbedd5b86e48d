"""Output checks, run after the timed requests.

Every request is checked against the digest of its stdout and its exit
code recorded in ``reference.json``; some subcommands also get a check
of what their output claims.  ``outcome`` reduces a request's output to
what the checks need, right after the request returns, so that a pass
does not hold megabytes of output until its checks run.  A check
returns None when the output is right and a short reason when it is
not.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from math import factorial

REFUSED = "lyubeznik: refused:"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_search(payload: dict, ideal) -> str | None:
    from lyubeznik.invariants import obstruction
    from lyubeznik.orders import OrderedIdeal

    witness = OrderedIdeal(ideal, tuple(payload["witness"]))
    if obstruction(witness) != payload["tobsL"]:
        return "witness obstruction differs from tobsL"
    if payload["L"] != payload["ps_min"]:
        return "L differs from ps_min"
    if payload["exact"] and payload["scanned"] != factorial(ideal.mu):
        return "exact search did not scan mu! orders"
    return None


def _check_oracle_betti(payload: dict, ideal) -> str | None:
    """Euler characteristic of each Taylor strand against the Betti table."""
    from lyubeznik.subsets import tables_for

    tables = tables_for(ideal)
    expected: dict[str, int] = defaultdict(int)
    expected[str(ideal.context.one())] += 1
    for mask in range(1, tables.size):
        sign = -1 if bin(mask).count("1") % 2 else 1
        expected[str(tables.lcm_monomial(mask))] += sign
    found: dict[str, int] = defaultdict(int)
    for i, mono, count in payload["multigraded"]:
        found[mono] += -count if i % 2 else count
    strip = lambda d: {k: v for k, v in d.items() if v}  # noqa: E731
    if strip(expected) != strip(found):
        return "alternating Betti sums differ from the Taylor strands"
    return None


def _check_verify(payload: dict, ideal) -> str | None:
    if not (payload["chain_complex"] and payload["resolves"]):
        return "verify reports a non-resolution"
    return None


# the outputs of these subcommands are small, so they are kept whole
SEMANTIC = {"search": _check_search, "oracle-betti": _check_oracle_betti,
            "verify": _check_verify}


def outcome(request, code, stdout: str, stderr: str) -> dict:
    """What the checks need of one request's output."""
    return {"code": code, "sha256": digest(stdout), "bytes": len(stdout),
            "refused": stderr.startswith(REFUSED),
            "stdout": stdout if request.cmd in SEMANTIC else None}


def check(request, record: dict, reference: dict) -> str | None:
    """Why the request's output (its ``outcome``) is wrong, or None."""
    code = record["code"]
    if code != request.expect:
        return f"exit code {code}, expected {request.expect}"
    if request.expect == 2 and not record["refused"]:
        return "refusal without the refusal message"
    recorded = reference.get(request.key)
    if recorded is None:
        return "no recorded digest"
    if recorded != {"code": code, "sha256": record["sha256"]}:
        return "output differs from the recorded digest"
    semantic = SEMANTIC.get(request.cmd)
    if semantic is not None and code == 0:
        from lyubeznik.monomials import read_ideal
        try:
            return semantic(json.loads(record["stdout"]),
                            read_ideal(request.argv[1]))
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"
    return None
