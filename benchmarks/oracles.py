"""Independent checks of slowclt certificates.

Every value a check compares against is recomputed here from the workload's
rate and the recorded schedule, with the standard library and plain numpy:
the probe times by scanning the rate, beta-mixing through the scalar renewal
sequence of the tower chain, the thm2 interval probability b_n in rational
arithmetic, and the i.i.d. coin through math.comb.  No slowclt code is used.

Each ``check_*`` function returns a list of failure messages; an empty list
means the certificate passed that check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)
SCAN_CAP = 10**7
# A rate value within this relative slack of its threshold counts as meeting
# it, so exact ties such as a_16 = 1/8 for a_n = 0.5/sqrt(n) are admissible
# despite floating-point rounding.
TIE_SLACK = 1e-12


def rate(desc: dict):
    """a_n = c * n^(-beta) of a power-law rate descriptor."""
    c, beta = float(desc["c"]), float(desc["beta"])
    return lambda n: c * n ** (-beta)


def parse_certificate(text: str) -> dict:
    """Split report.ndjson text into header, schedule and probe records."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    cert = {"header": records[0], "schedule": None, "probes": []}
    for rec in records[1:]:
        if rec["record"] == "schedule":
            cert["schedule"] = rec
        elif rec["record"] == "probe":
            cert["probes"].append(rec)
    return cert


def probes_named(cert: dict, name: str) -> list[dict]:
    return [r for r in cert["probes"] if r["name"] == name]


# -- probe times -------------------------------------------------------------


def rate_thresholds(variant: str, K: int, constants: dict) -> list[float]:
    """The level a_{n_k} must reach at each scheduled index k."""
    if variant == "thm1":
        return [2.0 ** (-(k + 3)) for k in range(K)]
    if variant == "thm3":
        caps = [2.0 ** (-k / 2.0) / (2.0 * SQRT2) for k in range(K)]
        scale = min(1.0, 0.96 / sum(caps))
        return [scale * c / 4.0 for c in caps]
    if variant == "thm2":
        L1, L2 = constants.get("L1", 1.0), constants.get("L2", 100.0)
        base = (SQRT2 - 1.0) / SQRT2
        ps = [base * 2.0 ** (-k / 2.0) for k in range(K)]
        ds = [p / (L1 if k % 2 == 0 else L2) for k, p in enumerate(ps)]
        sigma = math.sqrt(7.0 / 12.0 * sum(p * d * d for p, d in zip(ps, ds)))
        return [d / sigma for d in ds]
    raise ValueError(f"no rate thresholds for variant {variant!r}")


def smallest_times(a, thresholds: list[float]) -> list[int]:
    """n_k = the smallest n > n_{k-1} with a_n <= threshold_k, by linear scan."""
    out, n = [], 0
    for t in thresholds:
        n += 1
        while a(n) > t * (1.0 + TIE_SLACK):
            n += 1
            if n > SCAN_CAP:
                raise ValueError(f"no n <= {SCAN_CAP} reaches {t}")
        out.append(n)
    return out


def check_probe_times(cert: dict) -> list[str]:
    head, sched = cert["header"], cert["schedule"]
    want = smallest_times(
        rate(head["rate"]),
        rate_thresholds(head["variant"], head["K"], head.get("constants", {})),
    )
    if list(sched["n"]) != want:
        return [f"n_k = {sched['n']}, the rate scan gives {want}"]
    return []


# -- thm1 / thm3: lattice LLT and CLT values, exact law ---------------------


def check_lattice_values(cert: dict) -> list[str]:
    """llt >= a(n_k) and >= the tower-geometry intersection mass; clt >= a(n_k)/2."""
    head, sched = cert["header"], cert["schedule"]
    a = rate(head["rate"])
    share = 1 if head["variant"] == "thm1" else 2  # thm3 slabs sit in half a tower
    fails = []
    for rec in probes_named(cert, "llt"):
        k = rec["index"]
        n, H, p = sched["n"][k], sched["H"][k], sched["p"][k]
        inter = max(0, H - 2 * n + 2) * p / (share * H)
        if not rec["value"] >= a(n):
            fails.append(f"llt[{k}] = {rec['value']} < a(n_k) = {a(n)}")
        if not rec["value"] >= inter * (1.0 - TIE_SLACK):
            fails.append(f"llt[{k}] = {rec['value']} < intersection mass {inter}")
    for rec in probes_named(cert, "clt"):
        k = rec["index"]
        if not rec["value"] >= a(sched["n"][k]) / 2.0:
            fails.append(f"clt[{k}] = {rec['value']} < a(n_k)/2")
    return fails


def check_lattice_law(cert: dict, k: int, offset: int, probs: np.ndarray) -> list[str]:
    """The exact law of S_{n_k}: symmetric, total mass 1, variance n_k (1 - sum d).

    The variance identity holds because martingale differences are
    uncorrelated and the weight vanishes on slabs of total mass sum d_k.
    The recorded llt value must be the law's mass at 0.
    """
    sched = cert["schedule"]
    n = sched["n"][k]
    probs = np.asarray(probs, dtype=float)
    support = offset + np.arange(len(probs))
    fails = []
    if offset != -n or len(probs) != 2 * n + 1:
        return [f"law of S_{n} has support [{offset}, {support[-1]}]"]
    if np.max(np.abs(probs - probs[::-1])) > 1e-12:
        fails.append(f"law of S_{n} is not symmetric")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        fails.append(f"law of S_{n} sums to {probs.sum()!r}")
    var = float(np.dot(support.astype(float) ** 2, probs))
    want = n * (1.0 - sum(sched["d"]))
    if abs(var - want) > 1e-9 * want:
        fails.append(f"Var S_{n} = {var!r}, expected n(1 - sum d) = {want!r}")
    (llt,) = [r for r in probes_named(cert, "llt") if r["index"] == k]
    at0 = float(probs[n])
    if abs(llt["value"] - at0) > 1e-12 * max(at0, 1e-300):
        fails.append(f"llt[{k}] = {llt['value']} but the law gives {at0}")
    return fails


# -- thm3: beta-mixing through the renewal sequence -------------------------


class RenewalBeta:
    """Exact beta(m) of a tower chain whose landing row does not depend on the source.

    After a landing the chain's law is fixed by u(0) = 1,
    u(t) = sum_d r_d u(t - H_d): the state is (d, i) with probability
    r_d u(a - i) at age a, and pi(d, i) = r_d / mu with mu = sum r_d H_d.  So
    TV(flow_a, pi) = 1/2 sum_d r_d sum_{i<H_d} |u(a-i) - 1/mu|, and
    beta(m) = sum_l lambda_l [max(0, H_l - m)(1 - lambda_l) + sum_{a=max(0,m-H_l)}^{m-1} TV_a]
    with lambda_l = p_l / H_l the level mass of tower l.
    """

    def __init__(self, heights, masses, max_lag: int):
        h = np.asarray(heights, dtype=np.int64)
        m = np.asarray(masses, dtype=float)
        m = m / m.sum()
        self.heights = h
        self.level = m / h
        r = self.level / self.level.sum()
        inv_mu = 1.0 / float(np.dot(r, h))
        T = max_lag + 1
        u = np.zeros(T)
        u[0] = 1.0
        # each block of length min(H) depends only on earlier blocks
        step = int(h.min())
        for t0 in range(1, T, step):
            t1 = min(t0 + step, T)
            acc = np.zeros(t1 - t0)
            for rd, hd in zip(r, h):
                lo, hi = t0 - hd, t1 - hd
                if hi <= 0:
                    continue
                src = u[max(lo, 0):hi]
                acc[len(acc) - len(src):] += rd * src
            u[t0:t1] = acc
        err = np.concatenate([[0.0], np.cumsum(np.abs(u - inv_mu))])
        ages = np.arange(T)
        tv = np.zeros(T)
        for rd, hd in zip(r, h):
            lo = np.maximum(ages - hd + 1, 0)
            window = err[ages + 1] - err[lo] + np.maximum(hd - 1 - ages, 0) * inv_mu
            tv += rd * window
        self.tv_prefix = np.concatenate([[0.0], np.cumsum(0.5 * tv)])

    def beta(self, m: int) -> float:
        total = 0.0
        for lam, hl in zip(self.level, self.heights):
            det = max(0, int(hl) - m) * (1.0 - lam)
            landed = self.tv_prefix[m] - self.tv_prefix[max(0, m - int(hl))]
            total += lam * (det + landed)
        return float(total)


def check_mixing(cert: dict) -> list[str]:
    """beta(m_k) matches beta_at_m and is <= eps_k; beta(m_k - 1) > eps_k above the floor."""
    sched = cert["schedule"]
    (rec,) = probes_named(cert, "mixing")
    det = rec["details"]
    lags, recorded, eps = det.get("m_lags"), det.get("beta_at_m"), sched["eps"]
    if not lags or len(lags) != len(eps) or len(recorded) != len(eps):
        return [f"mixing record has lags {lags} for {len(eps)} eps_k"]
    chain = RenewalBeta(
        list(sched["H"]) + [sched["remainder_height"]],
        list(sched["p"]) + [sched["remainder_mass"]],
        max(lags),
    )
    fails, floor = [], 1
    for k, (m, b_rec, e) in enumerate(zip(lags, recorded, eps)):
        if m < floor:
            fails.append(f"m_{k} = {m} is below the search floor {floor}")
            break
        b = chain.beta(m)
        if abs(b - b_rec) > 1e-9:
            fails.append(f"beta(m_{k}={m}) = {b!r}, recorded {b_rec!r}")
        if b > e:
            fails.append(f"beta(m_{k}={m}) = {b!r} > eps_{k} = {e}")
        if m - 1 >= floor and chain.beta(m - 1) <= e:
            fails.append(f"beta(m_{k}-1={m - 1}) <= eps_{k}: m_{k} is not the smallest lag")
        floor = m + 1
    return fails


# -- thm2: b_n in rational arithmetic, density cap --------------------------


def _irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= x) for i.i.d. uniforms on [0, 1], exactly."""
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    P, Q = x.numerator, x.denominator
    s = sum((-1) ** k * math.comb(n, k) * (P - k * Q) ** n for k in range(math.floor(x) + 1))
    return Fraction(s, Q**n * math.factorial(n))


def interval_probability_exact(n: int, u: Fraction) -> Fraction:
    """P(|g_1 + ... + g_n| <= u), g uniform on [-1, -1/2] u [1/2, 1].

    g = (3/4) s + W with a fair sign s and W ~ U(-1/4, 1/4) independent, so
    S = (3/4)(2J - n) + (IH_n - n/2)/2 with J ~ Bin(n, 1/2) and IH_n the
    Irwin-Hall sum of n uniforms.
    """
    total = Fraction(0)
    half = Fraction(n, 2)
    for j in range(n + 1):
        shift = Fraction(3 * (2 * j - n), 2)  # 2 * (3/4)(2j - n)
        inside = _irwin_hall_cdf(n, half + 2 * u - shift) - _irwin_hall_cdf(n, half - 2 * u - shift)
        total += math.comb(n, j) * inside
    return total / 2**n


def b_bracket(n: int, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rationals lo <= P(|g_1+...+g_n| <= sqrt(n)) <= hi, equal when n is a square."""
    r = math.isqrt(n)
    if r * r == n:
        v = interval_probability_exact(n, Fraction(r))
        return v, v
    scale = 10**digits
    u_lo = Fraction(math.isqrt(n * scale * scale), scale)
    return (interval_probability_exact(n, u_lo),
            interval_probability_exact(n, u_lo + Fraction(1, scale)))


def check_density_ratio(cert: dict) -> list[str]:
    """Each recorded b_n lies within its b_error of P(|g_1+...+g_n| <= sqrt n)."""
    sched = cert["schedule"]
    fails = []
    for rec in probes_named(cert, "llt-ratio"):
        k = rec["index"]
        n = sched["n"][k]
        det = rec["details"]
        lo, hi = b_bracket(n)
        b, err = Fraction(det["b_n"]), Fraction(det["b_error"])
        if not (lo - err <= b <= hi + err):
            fails.append(
                f"b_{n} = {det['b_n']!r} +- {det['b_error']!r} misses the exact {float(lo)!r}"
            )
    return fails


def check_density_cap(cert: dict) -> list[str]:
    consts = cert["schedule"]["constants"]
    (rec,) = probes_named(cert, "density-bound")
    fails = []
    cap = consts["L1"] + consts["L2"]
    if not rec["value"] <= cap:
        fails.append(f"density max {rec['value']!r} > L1 + L2 = {cap!r}")
    integral = rec["details"].get("integral")
    if integral is None or abs(integral - 1.0) > 1e-10:
        fails.append(f"density integrates to {integral!r}")
    return fails


# -- iid-baseline: the fair coin through math.comb --------------------------


def coin_sup_deviation(n: int, h: int) -> float:
    """sup_N |(sqrt(n)/h) P(S_n = -n + N h) - phi((-n + N h)/sqrt(n))| for a fair +-1 coin."""
    root = math.sqrt(n)
    worst = 0.0
    for N in range(2 * n // h + 1):
        s = -n + N * h
        p = math.comb(n, (s + n) // 2) / 2**n if (s + n) % 2 == 0 else 0.0
        z = s / root
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        worst = max(worst, abs(root / h * p - phi))
    return worst


def check_baseline(cert: dict) -> list[str]:
    (decay,) = probes_named(cert, "baseline-span-decay")
    (small,) = probes_named(cert, "baseline-span-small")
    (bad,) = probes_named(cert, "baseline-bad-span")
    dev = {n: coin_sup_deviation(n, 2) for n in (100, 200, 400)}
    pairs = [(f"sup_deviation[{n}]", decay["details"]["sup_deviation"].get(str(n)), v)
             for n, v in dev.items()]
    pairs += [
        ("baseline-span-decay value", decay["value"], dev[400]),
        ("baseline-span-decay bound", decay["bound"], dev[100]),
        ("baseline-span-small value", small["value"], dev[400]),
        ("baseline-bad-span value", bad["value"], coin_sup_deviation(400, 1)),
    ]
    return [f"{what} = {got!r}, math.comb gives {want!r}"
            for what, got, want in pairs if got is None or abs(got - want) > 1e-12]


def check_certificate(cert: dict) -> list[str]:
    """Every recorded-value check that applies to the certificate's variant."""
    variant = cert["header"]["variant"]
    if variant == "iid-baseline":
        return check_baseline(cert)
    fails = check_probe_times(cert)
    if variant in ("thm1", "thm3"):
        fails += check_lattice_values(cert)
    if variant == "thm3":
        fails += check_mixing(cert)
    if variant == "thm2":
        fails += check_density_ratio(cert) + check_density_cap(cert)
    return fails
