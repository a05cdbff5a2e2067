"""Report verification with the benchmark's own dict-based polynomial code.

Fields are dicts {(j, m): Fraction} with 0-based component j, series are
dicts {m: Fraction}.  Nothing here imports nfkit: every check recomputes
the defining identity (a bracket, a Lie derivative) or compares against
the generator's own enumeration.  ``verify`` returns None for a correct
report and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import commutant_dimension


def parse_field(doc):
    return {(t["j"] - 1, tuple(t["m"])): Fraction(t["c"]) for t in doc["terms"]}


def parse_series(doc):
    return {tuple(t["m"]): Fraction(t["c"]) for t in doc["terms"]}


def _add(out, key, value):
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def bracket(g, h):
    """[g, h] = Dh.g - Dg.h."""
    out = {}
    for a, b, sign in ((g, h, 1), (h, g, -1)):
        for (j, m), cb in b.items():
            for (i, l), ca in a.items():
                if m[i]:
                    mono = tuple(x + y - (t == i) for t, (x, y) in enumerate(zip(m, l)))
                    _add(out, (j, mono), sign * m[i] * cb * ca)
    return out


def lie_derivative(f, phi):
    """X_f(phi) = sum_i f_i d(phi)/dx_i."""
    out = {}
    for m, c in phi.items():
        for (i, l), cf in f.items():
            if m[i]:
                _add(out, tuple(x + y - (t == i) for t, (x, y) in enumerate(zip(m, l))), m[i] * c * cf)
    return out


def divergence(f):
    out = {}
    for (j, m), c in f.items():
        if m[j]:
            _add(out, tuple(x - (t == j) for t, x in enumerate(m)), m[j] * c)
    return out


def series_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _add(out, tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
    return out


def series_times_field(s, f):
    out = {}
    for m1, c1 in s.items():
        for (j, m2), c2 in f.items():
            _add(out, (j, tuple(x + y for x, y in zip(m1, m2))), c1 * c2)
    return out


def subtract(a, b):
    out = dict(a)
    for k, v in b.items():
        _add(out, k, -v)
    return out


def low_terms(poly, D):
    """Terms of degree <= D; field keys are (j, m), series keys are m."""
    return {
        k: v for k, v in poly.items() if sum(k[1] if isinstance(k[1], tuple) else k) <= D
    }


# -- per-command checks ----------------------------------------------------


def _resonance_map(res):
    return {str(j + 1): [list(m) for m in rj] for j, rj in enumerate(res) if rj}


def _check_exact_centralizer(doc, exp):
    lam, nil, res = exp["lam"], exp["nilpotent"], exp["resonances"]
    d = commutant_dimension(lam, nil)
    r = sum(len(rj) for rj in res)
    if doc["exact"] is not True or doc["bounds"] != {"d": d, "r": r}:
        return f"bounds {doc['bounds']} != d = {d}, r = {r}"
    dim = doc["dimension"]
    if dim != len(doc["basis"]) or not d <= dim <= d + r:
        return f"dimension {dim} outside [{d}, {d + r}]"
    if not nil:
        blocks = {}
        for i, v in enumerate(lam):
            blocks.setdefault(v, [i, 0])[1] += 1
        lo = sum(size * size for _i, size in blocks.values())
        hi = sum(size * (size + len(res[i])) for i, size in blocks.values())
        if doc.get("block_bounds") != [lo, hi] or not lo <= dim <= hi:
            return f"block bounds {doc.get('block_bounds')} != [{lo}, {hi}]"
    for g in doc["basis"]:
        if bracket(parse_field(g), exp["field"]):
            return "basis element does not commute with the field"
    return None


def _check_truncated_centralizer(doc, exp):
    D = exp["D"]
    if doc["exact"] is not False or doc["truncation"] != D:
        return "not a truncated report at the requested degree"
    if doc["dimension"] != len(doc["basis"]) or doc["dimension"] < 1:
        return "dimension does not match the basis"
    for g in doc["basis"]:
        if low_terms(bracket(parse_field(g), exp["field"]), D):
            return f"[g, f] has terms of degree <= {D}"
    return None


def _check_normalizer(doc, exp):
    D, f = exp["D"], exp["field"]
    if doc["truncation"] != D or doc["dimension"] != len(doc["basis"]) or doc["dimension"] < 1:
        return "dimension or truncation does not match the basis"
    for pair in doc["basis"]:
        g, lam = parse_field(pair["g"]), parse_series(pair["lambda"])
        residual = subtract(bracket(g, f), series_times_field(lam, f))
        if low_terms(residual, D):
            return f"[g, f] - lambda f has terms of degree <= {D}"
    return None


def _check_resonances(doc, exp):
    lam, res = exp["lam"], exp["resonances"]
    want = {
        "finite": True,
        "degree_bound": max(1, max(lam) // min(lam)),
        "r": sum(len(rj) for rj in res),
        "R": _resonance_map(res),
    }
    return None if doc == want else "resonance listing differs from the search"


def _check_pdnf_basis(doc, exp):
    res = exp["resonances"]
    want = sorted((j, sum(m), m) for j, rj in enumerate(res) for m in rj)
    got = []
    for b in doc["basis"]:
        (key, c), = parse_field(b).items()
        if c != 1:
            return "basis element is not a unit monomial"
        got.append((key[0], sum(key[1]), key[1]))
    if doc["count"] != len(want) or got != want:
        return "normal-form basis differs from the resonance search"
    return None


def _check_check(doc, exp):
    lam = exp["lam"]
    # the constant from the linear part is integral, so the full field decides
    div = divergence(exp["field"])
    integral = all(sum(a * b for a, b in zip(m, lam)) == 0 for m in div)
    want = {"spectrum": "ok", "n": len(lam), "q": 1, "pdnf": True, "divergence_integral": integral}
    return None if doc == want else f"check report {doc} != {want}"


def _rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_invariants(doc, exp):
    lam = exp["lam"]
    gens = [tuple(g) for g in doc["generators"]]
    for g in gens:
        if len(g) != len(lam) or min(g) < 0 or not any(g) or sum(a * b for a, b in zip(g, lam)):
            return f"generator {g} is not a nonzero first-integral exponent"
    for a in gens:
        for b in gens:
            if a != b and all(x <= y for x, y in zip(a, b)):
                return f"generator {b} is not minimal"
    independent = not gens or _rank(gens) == len(gens)
    if doc["independent"] is not independent:
        return "independence flag differs from the rank test"
    return None


def _check_reduce(doc, exp):
    gens, f = exp["generators"], exp["field"]
    fhat = parse_field(doc)
    if doc["n"] != len(gens):
        return "reduced dimension differs from the generator count"
    for i, g in enumerate(gens):
        lhs = lie_derivative(f, {g: Fraction(1)})
        rhs = {}
        for (j, k), c in fhat.items():
            if j == i:
                mono = tuple(sum(e * gen[t] for e, gen in zip(k, gens)) for t in range(len(g)))
                _add(rhs, mono, c)
        if lhs != rhs:
            return f"reduction identity fails for generator {g}"
    r = len(gens)
    for i in range(r):
        for j in range(r):
            mono = tuple((t == i) + (t == j) for t in range(r))
            if Fraction(doc["nu"][i][j]) != fhat.get((i, mono), 0):
                return "nu differs from the quadratic part of the reduced field"
    return None


def _check_jacobi(doc, exp):
    D, f = exp["D"], exp["field"]
    r_min, r_max = exp["r"]
    if doc["D"] != D or [e["r"] for e in doc["entries"]] != list(range(r_min, r_max + 1)):
        return "ladder entries do not match the requested orders"
    div = divergence(f)
    for e in doc["entries"]:
        if e["status"] == "solved":
            phi = parse_series(e["multiplier"])
            if not phi or min(sum(m) for m in phi) != e["r"]:
                return f"multiplier for r = {e['r']} has the wrong lowest order"
            if low_terms(subtract(lie_derivative(f, phi), series_mul(div, phi)), D):
                return f"X_f(phi) - div f phi has terms of degree <= {D}"
        elif not (e["status"] == "inconsistent" and e["r"] <= e["failed_degree"] <= D):
            return f"entry {e} is neither solved nor inconsistent within range"
    return None


CHECKS = {
    ("centralizer-exact", "centralizer"): _check_exact_centralizer,
    ("centralizer-exact", "resonances"): _check_resonances,
    ("centralizer-exact", "pdnf-basis"): _check_pdnf_basis,
    ("centralizer-exact", "check"): _check_check,
    ("normalizer-truncated", "centralizer"): _check_truncated_centralizer,
    ("normalizer-truncated", "normalizer"): _check_normalizer,
    ("invariants-multiplier", "invariants"): _check_invariants,
    ("invariants-multiplier", "reduce"): _check_reduce,
    ("invariants-multiplier", "jacobi"): _check_jacobi,
}


def verify(workload, req, code, out):
    """None when the request exited 0 and its report passes the checks."""
    if code != 0:
        return f"exit status {code}"
    try:
        doc = json.loads(out)
        return CHECKS[(workload, req.kind)](doc, req.expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
