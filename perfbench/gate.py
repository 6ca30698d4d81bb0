"""Output gate: re-checks every job's output from the graph alone.

Nothing here calls the code under test.  Perfect matchings, coverage
counts, gains, the product bound and reconstructions are recomputed
from the edge list, so a defect in matchcover cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def product_bound(r: int, k: int) -> Fraction:
    """Guaranteed greedy coverage after k steps (the paper's per-step product)."""
    rest = Fraction(1)
    for i in range(1, k + 1):
        if r % 2 == 0:
            num = (r * r - 3 * r + 1) * i - (r * r - 5 * r + 3)
            den = (r * r - 2 * r - 1) * i - (r * r - 4 * r - 1)
        else:
            num = (r * r - 2 * r - 1) * i - (r * r - 4 * r + 1)
            den = (r * r - r - 2) * i - (r * r - 3 * r - 2)
        rest *= Fraction(num, den)
    return 1 - rest


def matchings_digest(matchings) -> str:
    return hashlib.sha256(json.dumps([list(m) for m in matchings]).encode()).hexdigest()[:16]


def _perfect(g, ids) -> bool:
    seen: set[int] = set()
    for e in ids:
        if not (isinstance(e, int) and 0 <= e < g.m):
            return False
        u, v = g.edges[e]
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return len(seen) == g.n


def normalize(job, raw) -> dict:
    """Plain-data view of a job's output; raises on malformed CLI output."""
    if job.kind == "cover":
        return {
            "matchings": [list(m.edge_ids) for m in raw.matchings],
            "covered": len(raw.state.covered),
            "fraction": raw.fraction,
            "bound": raw.bound,
            "certs": [(c.level, c.predicted_gain, c.actual_gain, c.covered_after)
                      for c in raw.certificates],
        }
    if job.kind in ("cli-cover", "cli-exact"):
        code, text = raw
        if code != 0:
            raise ValueError(f"CLI exited {code}")
        report = json.loads(text)
        if report["exit_reason"] != "ok":
            raise ValueError(f"CLI exit_reason {report['exit_reason']!r}")
        res = report["result"]
        out = {"matchings": res["matchings"], "fraction": Fraction(res["fraction"])}
        if job.kind == "cli-cover":
            out["covered"] = res["covered"]
            out["bound"] = Fraction(res["bound"])
            out["certs"] = [(c["level"], Fraction(c["predicted_gain"]), c["actual_gain"],
                             c["covered_after"]) for c in report["certificates"]]
        return out
    if job.kind == "decompose":
        return {"terms": [(list(m.edge_ids), c) for m, c in raw.terms]}
    if job.kind == "multicolor":
        return {"p": raw.p, "matchings": [list(m.edge_ids) for m in raw.matchings]}
    raise ValueError(f"unknown job kind {job.kind!r}")


class Gate:
    """Checks outputs job by job.

    Keeps, per graph and step, the best coverage the greedy covers
    reached, so the exact oracle's optimum for k can be checked against
    the greedy coverage after k steps.  `reference` maps job index to a
    recorded matchings digest; jobs listed there must reproduce it.
    """

    def __init__(self, reference: dict[int, str] | None = None):
        self.reference = reference or {}
        self.greedy_prefix: dict[tuple[int, int], Fraction] = {}

    def check(self, job, raw) -> list[str]:
        """Problems with one output; empty when it passes."""
        try:
            out = normalize(job, raw)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if job.kind in ("cover", "cli-cover"):
            problems = self._cover(job, out)
        elif job.kind == "cli-exact":
            problems = self._exact(job, out)
        elif job.kind == "decompose":
            problems = self._decompose(job, out)
        else:
            problems = self._multicolor(job, out)
        want = self.reference.get(job.index)
        if want is not None and "matchings" in out and matchings_digest(out["matchings"]) != want:
            problems.append(f"matchings digest differs from the reference {want}")
        return problems

    def _cover(self, job, out) -> list[str]:
        g, problems = job.graph, []
        if len(out["matchings"]) != job.k or len(out["certs"]) != job.k:
            problems.append(f"expected {job.k} matchings and certificates")
        covered: set[int] = set()
        for step, (ids, cert) in enumerate(zip(out["matchings"], out["certs"]), start=1):
            level, predicted, actual, after = cert
            if not _perfect(g, ids):
                problems.append(f"step {step}: not a perfect matching")
            gain = len(set(ids) - covered)
            covered |= set(ids)
            if actual != gain or after != len(covered):
                problems.append(f"step {step}: reported gain/covered differ from recount")
            if actual < predicted:
                problems.append(f"step {step}: gain {actual} below certified {predicted}")
            if job.mode == "exact-lemma" and level != "L1":
                problems.append(f"step {step}: exact-lemma certificate at level {level}")
            key = (job.graph_id, step)
            frac = Fraction(len(covered), g.m)
            self.greedy_prefix[key] = max(frac, self.greedy_prefix.get(key, frac))
        bound = product_bound(job.r, job.k)
        if out["covered"] != len(covered) or out["fraction"] != Fraction(len(covered), g.m):
            problems.append("reported coverage differs from recount")
        if out["bound"] != bound:
            problems.append(f"reported bound {out['bound']} is not {bound}")
        if Fraction(len(covered), g.m) < bound:
            problems.append(f"coverage below the product bound {bound}")
        return problems

    def _exact(self, job, out) -> list[str]:
        g, problems = job.graph, []
        ms = out["matchings"]
        if len(ms) != job.k or not all(_perfect(g, ids) for ids in ms):
            problems.append(f"witness is not {job.k} perfect matchings")
        union = set().union(*map(set, ms)) if ms else set()
        if out["fraction"] != Fraction(len(union), g.m):
            problems.append("reported optimum differs from the witness union")
        floor = max(product_bound(job.r, job.k),
                    self.greedy_prefix.get((job.graph_id, job.k), Fraction(0)))
        if out["fraction"] < floor:
            problems.append(f"optimum {out['fraction']} below a greedy/bound floor {floor}")
        return problems

    def _decompose(self, job, out) -> list[str]:
        g, problems = job.graph, []
        total = Fraction(0)
        load = [Fraction(0)] * g.m
        for ids, coeff in out["terms"]:
            if not coeff > 0:
                problems.append(f"non-positive coefficient {coeff}")
            if not _perfect(g, ids):
                problems.append("a term is not a perfect matching")
                continue
            total += coeff
            for e in ids:
                load[e] += coeff
        if total != 1:
            problems.append(f"coefficients sum to {total}")
        if any(x != Fraction(1, job.r) for x in load):
            problems.append(f"reconstruction is not 1/{job.r} on every edge")
        return problems

    def _multicolor(self, job, out) -> list[str]:
        g, p, problems = job.graph, out["p"], []
        ms = out["matchings"]
        if not (isinstance(p, int) and p >= 1) or len(ms) != job.r * p:
            problems.append(f"expected r*p matchings, got {len(ms)} for p={p}")
        load = [0] * g.m
        for ids in ms:
            if not _perfect(g, ids):
                problems.append("a color class is not a perfect matching")
                continue
            for e in ids:
                load[e] += 1
        if any(x != p for x in load):
            problems.append(f"some edge is not covered exactly p={p} times")
        return problems
