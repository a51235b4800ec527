"""Experiment runner.

Deterministic exact experiments, seeded Monte Carlo estimation,
and CSV report emission over the library's spaces and bounds.

Every command writes one UTF-8 CSV (header row included) to --out or
stdout, sorted deterministically; exact rationals are emitted as
num/den integer column pairs next to float renderings.  Reruns with
the same configuration and seed are byte-identical.

Exit status is 0 iff no emitted row carries status "fail".  Known
small-class deviations (the cubic tabulation bound on the shortest-
code model at n = 1, 2) are downgraded to "expected_fail" under
--audit, so audited runs distinguish "bound reproduced" from "bound
audited and found not to hold".
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import _kernel, engines, measure
from .formula import (ConnectiveTable, Formula, FormulaError, ModelSet, codes_size,
                      var_count_alpha)

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL = "expected_fail"
INFO = "info"

# (command, model, n) triples whose bound is known not to hold; --audit
# reports them as expected_fail instead of fail.
KNOWN_DEVIATIONS = {("tab-oclass", "shannon", 1), ("tab-oclass", "shannon", 2)}


class SampleError(Exception):
    """A sampling command was asked for fewer than one sample, or for
    samples from a space with no sentences in it."""


class OptionError(Exception):
    """A --config file cannot be read, a line or value in it parsed, or
    an option's value is not one its command accepts."""


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise SampleError(f"need at least one sample, got {samples}")


def _frac(q: Fraction) -> list[str]:
    q = Fraction(q)
    # Exact values may have more digits than int-to-str converts by
    # default (a limit since Python 3.10.7; 0 means none); lift it here.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [str(q.numerator), str(q.denominator)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _float(v) -> str:
    return repr(float(v))


def _int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part != ""]


def _read_config(path: str | None) -> dict[str, tuple[str, str]]:
    """key -> (value, "PATH:LINE" where it was set)."""
    if not path:
        return {}
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except OSError as exc:
        raise OptionError(f"{path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OptionError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip(), f"{path}:{lineno}"
    return cfg


class Options:
    """Option resolution: CLI flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, tuple[str, str]]):
        self.args = args
        self.cfg = cfg

    def get(self, name: str, default, cast=None, choices=None, minimum=None):
        """The value of option ``name``; it must be one of ``choices``
        and, if an integer or a list of them, at least ``minimum``."""
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is not None:
            shown = ",".join(map(str, value)) if isinstance(value, list) else value
            where = f"--{name.replace('_', '-')} {shown}"
        elif name not in self.cfg:
            return default
        else:
            raw, line = self.cfg[name]
            where = f"{line}: {name} = {raw}"
            if isinstance(default, bool) and cast is None:
                return raw.lower() in ("1", "true", "yes")
            if cast is None and isinstance(default, (int, float)):
                cast = type(default)
            try:
                value = raw if cast is None else cast(raw)
            except ValueError as exc:
                raise OptionError(f"{where}: {exc}") from exc
        if choices is not None and value not in choices:
            raise OptionError(f"{where}: choose from {', '.join(choices)}")
        if minimum is not None and min(value if isinstance(value, list) else [value],
                                       default=minimum) < minimum:
            raise OptionError(f"{where}: must be at least {minimum}")
        return value


def _load_table(opts: Options) -> ConnectiveTable:
    path = opts.get("table", None, cast=str)
    if not path:
        return ConnectiveTable.standard()
    try:
        return ConnectiveTable.from_file(path)
    except OSError as exc:
        raise FormulaError(f"table {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormulaError(f"table {path}: {exc}") from exc


def _emit(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- commands ---------------------------------------------------------


def cmd_expected_min(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    n = opts.get("n", 1, minimum=0)
    ns = range(0, n + 1) if opts.get("upto", False) else [n]
    header = ["n", "brute_num", "brute_den", "closed_num", "closed_den",
              "nonempty_num", "nonempty_den", "closed_float", "status"]
    rows = []
    for k in ns:
        em = analytic.expected_min_plus_one(k)
        brute = em.brute if em.brute is not None else em.closed
        ok = em.closed < 2 and em.nonempty_sum < 2
        rows.append([str(k), *_frac(brute), *_frac(em.closed),
                     *_frac(em.nonempty_sum), _float(em.closed),
                     PASS if ok else FAIL])
    return header, rows


def _scan_time(x: Formula) -> int:
    return engines.sat_scan(x).time_units


def _sat_report(table: ConnectiveTable, n: int, max_tokens: int | None):
    if max_tokens is None:
        space = measure.covering_space(table, n)
    else:
        space = measure.formula_space(table, n, max_tokens)
    mu = measure.uniform_over_model_classes(space, n)
    return space, mu, measure.oclass_member(space, _scan_time, lambda k: 2 * k, mu)


def _negated_space(space: measure.InputSpace) -> measure.InputSpace:
    """The negations of a space's sentences, with the same counts.

    Negation maps keys one to one (the same alpha, complemented model
    sets, and a size that depends on the original size alone), so each
    negated representative stands for the negations of the sentences
    its original stood for.
    """
    count = {engines.negated(x): space.count[x] for x in space.items}
    return measure.InputSpace.from_formulas(count, count)


def cmd_sat_oclass(opts: Options):
    n = opts.get("n", 1)
    max_tokens = opts.get("max_tokens", None, cast=int)
    table = _load_table(opts)
    header = ["check"] + measure.BoundReport.CSV_HEADER
    rows = []
    space, mu, report = _sat_report(table, n, max_tokens)
    for row in report.csv_rows():
        rows.append(["sat"] + row)
    if table.negation_strategy() is None:
        rows.append(["co-skipped", str(n), "0", "1", "0", "1", "0.0", "0.0", INFO])
    else:
        co_space = _negated_space(space)
        mu_co = measure.uniform_over_model_classes(co_space, n)
        co_report = measure.oclass_member(co_space, _scan_time, lambda k: 2 * k, mu_co)
        for row in co_report.csv_rows():
            rows.append(["co"] + row)
    # measured share of the checker's time spent reading the input
    # (the linear bound alone would put it at 1/2); informational only
    read = measure.avg_time(lambda x: engines.rewrite_cost(x).time_units, mu,
                            space.items)
    share = read / measure.avg_time(_scan_time, mu, space.items)
    rows.append(["read-share", str(n), *_frac(share), *_frac(Fraction(3, 10)),
                 _float(share), "0.3", INFO])
    return header, rows


def cmd_tab_oclass(opts: Options):
    audit = bool(opts.get("audit", False))
    model = opts.get("model", "shannon", cast=str, choices=("shannon", "enumerated"))
    ns = opts.get("n_list", [opts.get("n", 3, minimum=1)], cast=_int_list, minimum=1)
    header = measure.BoundReport.CSV_HEADER
    rows = []
    if model == "shannon":
        from . import analytic  # loaded only by the commands that use it
        for n in sorted(ns):
            tb = analytic.tabulator_class_bound(n)
            status = PASS if tb.passed else FAIL
            if status == FAIL and audit and ("tab-oclass", "shannon", n) in KNOWN_DEVIATIONS:
                status = EXPECTED_FAIL
            rows.append([str(n), *_frac(tb.lhs), *_frac(tb.rhs),
                         _float(tb.lhs), _float(tb.rhs), status])
    else:
        table = _load_table(opts)
        max_tokens = opts.get("max_tokens", 7)
        for n in sorted(ns):
            space = measure.formula_space(table, n, max_tokens)
            mu = measure.uniform_within_min_layers(space, n)
            T = lambda x: engines.tabulate(x).time_units
            report = measure.oclass_member(space, T, lambda k: k ** 3, mu)
            rows.extend(report.csv_rows())
    return header, rows


def cmd_moments(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    m_list = opts.get("m_list", [2, 3], cast=_int_list, minimum=1)
    n_list = opts.get("n_list", [1, 2], cast=_int_list)
    tol = Fraction(1, 10 ** opts.get("tol_exp", 12, minimum=0))
    table = _load_table(opts)
    header = ["kind", "m", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []
    for m in sorted(m_list):
        s = analytic.geometric_moment_sum(m, tol)
        if m == 1:
            bound = Fraction(2)
            ok = abs(bound - s.partial) <= tol
        else:
            bound = analytic.moment_oclass_constant(m)
            ok = s.upper <= bound
        rows.append(["sum", str(m), "", *_frac(s.partial), *_frac(bound),
                     _float(s.partial), _float(bound), PASS if ok else FAIL])
    spaces = {}
    for n in sorted(n_list):
        space = measure.covering_space(table, n)
        spaces[n] = space, measure.uniform_over_model_classes(space, n)
    for m in sorted(m_list):
        if m < 2:
            continue
        c = analytic.moment_oclass_constant(m)
        for n, (space, mu) in spaces.items():
            T = lambda x: _scan_time(x) ** m
            report = measure.oclass_member(space, T, lambda k: c * k ** m, mu)
            for row in report.csv_rows():
                rows.append(["oclass", str(m)] + row)
    return header, rows


def cmd_counting(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    n_max = opts.get("n_max", 10, minimum=0)
    p = opts.get("p", 2)
    enum_limit = opts.get("enum_limit", 3)
    header = ["N", "gamma", "catalan", "sentence_count", "enum_count",
              "F_num", "F_den", "F_float", "partial_num", "partial_den",
              "partial_float", "status"]
    rows = []
    partial = Fraction(0)
    for N in range(n_max + 1):
        g = analytic.gamma_count(N)
        cat = analytic.catalan_binomial(N)
        sc = analytic.sentence_count(N)
        t = analytic.totals_and_ratio(N, p)
        partial += t.ratio
        ok = g == cat
        enum_count = ""
        if N <= enum_limit:
            census = analytic.census(N)
            enum_count = str(census.count)
            ok = ok and census.count == sc and census.tabulate_total == t.tabulate_total
        rows.append([str(N), str(g), str(cat), str(sc), enum_count,
                     *_frac(t.ratio), _float(t.ratio), *_frac(partial),
                     _float(partial), PASS if ok else FAIL])
    return header, rows


_CASES = {
    "harmonic": dict(T=lambda n: n, mu=lambda n: 1.0 / (n * n),
                     start=1, exact=False, expect=measure.Verdict.DIVERGENT_TREND),
    "geometric": dict(T=lambda n: 2 ** n, mu=lambda n: Fraction(1, 4 ** n),
                      start=0, exact=True, expect=measure.Verdict.CONVERGENT),
    "constant": dict(T=lambda n: 5, mu=lambda n: Fraction(1, n),
                     start=1, exact=True, expect=measure.Verdict.CONVERGENT),
}


def cmd_tractability(opts: Options):
    case = opts.get("case", "harmonic", cast=str, choices=sorted(_CASES))
    case_def = _CASES[case]
    default_budget = 10 ** 6 if case == "harmonic" else 60
    budget = opts.get("budget", default_budget)
    start = case_def["start"]
    res = measure.tractability(
        case_def["T"], case_def["mu"],
        range(start, start + budget),
        eps=opts.get("eps", 1e-12), cap=opts.get("cap", 1e6),
        exact=case_def["exact"])
    header = ["case", "prefix", "value_num", "value_den", "value_float",
              "verdict", "status"]
    status = PASS if res.verdict is case_def["expect"] else FAIL
    rows = []
    for k, v in res.checkpoints.items():
        frac = _frac(v) if case_def["exact"] else ["", ""]
        rows.append([case, str(k), *frac, _float(v), res.verdict.value, status])
    return header, rows


def _unrank(u: int, length: int, n_vars: int, arities, cnt) -> tuple[int, ...]:
    codes = []
    d = 0
    for pos in range(length):
        r = length - pos - 1
        block = cnt[r][d + 1]
        if u < n_vars * block:
            codes.append(u // block)
            u %= block
            d += 1
            continue
        u -= n_vars * block
        for j, a in enumerate(arities):
            if d < a:
                continue
            bj = cnt[r][d - a + 1]
            if u < bj:
                codes.append(-j - 1)
                d = d - a + 1
                break
            u -= bj
        else:
            raise AssertionError("unrank index out of range")
    return tuple(codes)


class SequenceSampler:
    """Uniform sampling over all valid RPN sequences of bounded length:
    a sample is a uniform rank ``u``, and rank ``u`` names the ``u``-th
    sequence in shortlex order."""

    def __init__(self, table: ConnectiveTable, n_vars: int, max_tokens: int):
        self.table = table
        self.n_vars = max(n_vars, 0)  # negative sizes have no sequences
        # one table serves every length up to max_tokens
        self.cnt = _kernel.completion_counts(self.n_vars, table.arities, max(max_tokens, 0))
        self.totals = [(L, self.cnt[L][0]) for L in range(1, max_tokens + 1)
                       if self.cnt[L][0]]
        self.grand_total = sum(c for _, c in self.totals)

    def codes_at(self, u: int) -> tuple[int, ...]:
        """The codes of the sentence of rank ``u``, for ``0 <= u < grand_total``."""
        for L, c in self.totals:
            if u < c:
                return _unrank(u, L, self.n_vars, self.table.arities, self.cnt)
            u -= c
        raise AssertionError("sampler index out of range")

    def at(self, u: int) -> Formula:
        """The sentence of rank ``u``, for ``0 <= u < grand_total``."""
        return Formula(self.codes_at(u), self.table)

    def sample(self, rng) -> Formula:
        return self.at(rng.randrange(self.grand_total))


def _first_witness(codes: tuple[int, ...], table: ConnectiveTable,
                   alpha: int | None = None) -> int | None:
    """``min_n`` of the model set, over its own variables, of the valid
    sentence with these codes; None, with no mask evaluated, when
    ``alpha`` is given and the sentence has another number of distinct
    variables.  Builds no Formula and adds no ``compact_model_set``
    entry."""
    remapped, a = _kernel.compact_codes(codes)
    if alpha is not None and a != alpha:
        return None
    return engines.min_n(ModelSet(a, _kernel.eval_mask(remapped, a, table.arities,
                                                       table.truth_bits)))


def _scan_units(codes: tuple[int, ...], table: ConnectiveTable, n: int) -> int | None:
    """``sat_scan``'s time units on the valid sentence with these codes,
    or None when it does not have exactly n distinct variables."""
    m = _first_witness(codes, table, n)
    return None if m is None else codes_size(codes) * (m + 1)


def _mean_stderr(count: int, sx: int, sxx: int) -> tuple[float, float]:
    """Mean and standard error of ``count`` integers with sum ``sx`` and
    sum of squares ``sxx``.

    The mean is the float sum over the count, as ``statistics.fmean``
    takes it.  The standard deviation is the correctly rounded square
    root of the exact sample variance (count*sxx - sx^2) / (count*(count-1)),
    as ``statistics.stdev`` takes it since Python 3.11.
    """
    mean = float(sx) / count
    if count < 2:
        return mean, 0.0
    num, den = count * sxx - sx * sx, count * (count - 1)
    # an integer root of at least 55 bits, rounded to odd, then rounded
    # once to a 53-bit float is the correctly rounded root
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    stdev = float(root << q) if q >= 0 else root / (1 << -q)
    return mean, stdev / count ** 0.5


def cmd_montecarlo(opts: Options):
    seed = opts.get("seed", 0)
    space_kind = opts.get("space", "sat", cast=str, choices=("sat",))
    n = opts.get("n", 2)
    max_tokens = opts.get("max_tokens", 8)
    samples = opts.get("samples", 100000)
    exhaustive = opts.get("exhaustive", False)
    exact_check = opts.get("exact_check", False)
    table = _load_table(opts)

    exact_mean = ""
    z = ""
    status = PASS
    if exhaustive:
        space = measure.formula_space(table, n, max_tokens)
        if not space.items:
            raise SampleError(
                f"no sentences with {n} distinct variables within {max_tokens} tokens")
        # one (value, count) pair per key, never one value per sentence
        samples = sx = sxx = 0
        for x in space.items:
            c, v = space.count[x], _scan_time(x)
            samples += c
            sx += c * v
            sxx += c * v * v
        mean, se = _mean_stderr(samples, sx, sxx)
        exact = measure.avg_time(_scan_time, measure.uniform_on(space), space.items)
        exact_mean = _float(exact)
        status = PASS if mean == float(exact) else FAIL
    else:
        _check_samples(samples)
        if exact_check and samples < 2:
            raise SampleError(f"--exact-check needs at least 2 samples, got {samples}")
        sampler = SequenceSampler(table, n, max_tokens)
        if sampler.grand_total == 0:
            raise SampleError(f"no sentences over {n} variables within {max_tokens} tokens")
        import random  # loaded only by the sampling commands
        rng = random.Random(seed)
        accepted = rejected = sx = sxx = 0
        # a draw's value depends on its rank alone: rank -> scan time, or
        # None when alpha != n, kept for at most `samples` distinct ranks
        value_of: dict[int, int | None] = {}
        while accepted < samples:
            u = rng.randrange(sampler.grand_total)
            if u in value_of:
                value = value_of[u]
            else:
                value = _scan_units(sampler.codes_at(u), table, n)
                if len(value_of) < samples:
                    value_of[u] = value
            if value is not None:
                accepted += 1
                sx += value
                sxx += value * value
            else:
                rejected += 1
                if rejected > 1000 * (accepted + samples):
                    raise SampleError(
                        f"no sentences with {n} distinct variables within "
                        f"{max_tokens} tokens (rejected {rejected} samples)")
        mean, se = _mean_stderr(accepted, sx, sxx)
        if exact_check:
            space = measure.formula_space(table, n, max_tokens)
            exact = measure.avg_time(_scan_time, measure.uniform_on(space), space.items)
            exact_mean = _float(exact)
            gap = mean - float(exact)
            # with no spread among the samples, only an exact hit passes
            zval = gap / se if se else math.copysign(math.inf, gap) if gap else 0.0
            z = _float(zval)
            status = PASS if abs(zval) <= 4 else FAIL
    header = ["space", "n", "max_tokens", "samples", "seed", "mean", "stderr",
              "exact_mean", "z", "status"]
    rows = [[space_kind, str(n), str(max_tokens), str(samples), str(seed),
             _float(mean), _float(se), exact_mean, z, status]]
    return header, rows


def cmd_explore_min(opts: Options):
    seed = opts.get("seed", 0)
    target = opts.get("target_tokens", 9)
    arity = opts.get("arity", 2)
    samples = opts.get("samples", 10000)
    _check_samples(samples)
    try:
        table = ConnectiveTable.all_of_arity(arity)
    except ValueError as exc:
        raise FormulaError(f"arity {arity}: {exc}") from exc
    # a sentence of L tokens over arity-a connectives has at most
    # 1 + (L-1)*(a-1)/a leaves; use that many variables
    pool = 1 + (target - 1) * (arity - 1) // arity
    length = max(target, 0)  # a negative length has no sentences, like zero
    cnt = _kernel.completion_counts(pool, table.arities, length)
    total = cnt[length][0]
    if total == 0:
        raise SampleError(f"no sentences with exactly {target} tokens at arity {arity}")
    import random  # loaded only by the sampling commands
    rng = random.Random(seed)
    # draws almost never repeat here, so each is scored from its codes,
    # which are valid by construction
    sx = sxx = 0
    for _ in range(samples):
        m = _first_witness(_unrank(rng.randrange(total), target, pool, table.arities, cnt),
                           table)
        sx += m
        sxx += m * m
    mean, se = _mean_stderr(samples, sx, sxx)
    header = ["target_tokens", "arity", "pool", "samples", "seed", "mean",
              "stderr", "status"]
    rows = [[str(target), str(arity), str(pool), str(samples), str(seed),
             _float(mean), _float(se), INFO]]
    return header, rows


def _combined_space(table: ConnectiveTable, ns: list[int], max_tokens: int | None):
    """One space holding the covering space for every class in ns."""
    count: dict[Formula, int] = {}
    for n in sorted(ns):
        if max_tokens is None:
            count.update(measure.covering_space(table, n).count)
        else:
            count.update(measure.formula_space(table, n, max_tokens).count)
    return measure.InputSpace.from_formulas(count, count)


def cmd_property_2_2(opts: Options):
    ns = opts.get("n_list", [1, 2], cast=_int_list)
    max_tokens = opts.get("max_tokens", None, cast=int)
    break_class = opts.get("break_class", None, cast=int)
    inflate = opts.get("inflate", 4)
    table = _load_table(opts)
    space = _combined_space(table, ns, max_tokens)
    mu = measure.uniform_over_model_classes(space)
    if break_class is None:
        T = _scan_time
    else:
        T = lambda x: _scan_time(x) * (inflate if var_count_alpha(x) == break_class else 1)
    result = measure.check_property_2_2(
        space, T, lambda k: 2 * k, mu,
        extra_H=[("ones", lambda n: 1), ("linear", lambda n: n)])
    header = ["check", "label", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []

    def class_status(n: int, passed: bool) -> str:
        if passed:
            return PASS
        return EXPECTED_FAIL if break_class == n else FAIL

    for r in sorted(result.oclass.rows, key=lambda r: r.n):
        rows.append(["oclass", "", str(r.n), *_frac(r.lhs), *_frac(r.rhs),
                     _float(r.lhs), _float(r.rhs), class_status(r.n, r.passed)])
    for h in result.h_rows:
        if h.ok:
            status = PASS
        elif break_class is not None and (h.label == f"chi_{break_class}"
                                          or not h.label.startswith("chi_")):
            status = EXPECTED_FAIL
        else:
            status = FAIL
        rows.append(["H", h.label, "", *_frac(h.lhs), *_frac(h.rhs),
                     _float(h.lhs), _float(h.rhs), status])
    bic = result.biconditional_ok
    if break_class is not None:
        # the demonstration must actually break the targeted class
        bic = bic and not result.oclass.row(break_class).passed
    rows.append(["biconditional", "", "", "0", "1", "0", "1", "0.0", "0.0",
                 PASS if bic else FAIL])
    return header, rows


def cmd_property_2_3(opts: Options):
    model = opts.get("model", "sat", cast=str, choices=("sat", "shannon"))
    exponent = opts.get("h_exponent", 2, minimum=0)
    H = lambda n: Fraction(1, n ** exponent)
    if model == "sat":
        ns = opts.get("n_list", [1, 2], cast=_int_list)
        table = _load_table(opts)
        space = _combined_space(table, ns, opts.get("max_tokens", None, cast=int))
        mu = measure.uniform_over_model_classes(space, per_class=True)
        T = _scan_time
        F = lambda k: 2 * k
    else:
        from . import analytic  # loaded only by the commands that use it
        ns = opts.get("n_list", [3, 4], cast=_int_list, minimum=1)
        space, T, mu = analytic.shannon_space(ns)
        F = lambda k: k ** 3
    result = measure.check_property_2_3(space, T, F, mu, H)
    header = ["model", "ns", "h_exponent", "expectation_num", "expectation_den",
              "bound_num", "bound_den", "mass_num", "mass_den",
              "expectation_float", "bound_float", "status"]
    rows = [[model, ";".join(str(n) for n in sorted(ns)), str(exponent),
             *_frac(result.expectation), *_frac(result.bound),
             *_frac(result.dominated_mass), _float(result.expectation),
             _float(result.bound), PASS if result.ok else FAIL]]
    return header, rows


def cmd_markov_tail(opts: Options):
    n = opts.get("n", 2)
    multiplier = opts.get("multiplier", 100, minimum=1)
    table = _load_table(opts)
    space = measure.covering_space(table, n)
    mu = measure.uniform_over_model_classes(space, n)
    avg = measure.avg_time(_scan_time, mu, space.items)
    result = measure.markov_tail(_scan_time, mu, space.items, multiplier * avg)
    ok = result.ok and result.empirical <= Fraction(1, multiplier)
    header = ["n", "multiplier", "avg_num", "avg_den", "bound_num", "bound_den",
              "empirical_num", "empirical_den", "status"]
    rows = [[str(n), str(multiplier), *_frac(avg), *_frac(result.bound),
             *_frac(result.empirical), PASS if ok else FAIL]]
    return header, rows


# --- entry point ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value option file")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="CSV output path (default stdout)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="Monte Carlo seed (default 0)")
    common.add_argument("--audit", action="store_true", default=argparse.SUPPRESS,
                        help="report known deviations as expected_fail")
    parser = argparse.ArgumentParser(
        prog="avgsat", parents=[common],
        description="Average running time experiments over propositional sentence spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("expected-min", help="expected first-witness bound")
    p.add_argument("--n", type=int)
    p.add_argument("--upto", action="store_true", default=None,
                   help="emit every n from 0 to --n")

    p = add_parser("sat-oclass", help="linear bound for the satisfiability scanner")
    p.add_argument("--n", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--table")

    p = add_parser("tab-oclass", help="cubic bound for the tabulator")
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", type=_int_list)
    p.add_argument("--model", choices=["shannon", "enumerated"])
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--table")

    p = add_parser("moments", help="higher-moment sums and bounds")
    p.add_argument("--m-list", type=_int_list)
    p.add_argument("--n-list", type=_int_list)
    p.add_argument("--tol-exp", type=int)
    p.add_argument("--table")

    p = add_parser("counting", help="sentence shape counts and cost-ratio series")
    p.add_argument("--n-max", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--enum-limit", type=int)

    p = add_parser("tractability", help="partial-average trend scans")
    p.add_argument("--case", choices=sorted(_CASES))
    p.add_argument("--budget", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--cap", type=float)

    p = add_parser("montecarlo", help="seeded sampling estimate of the average time")
    p.add_argument("--space")
    p.add_argument("--n", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--exhaustive", action="store_true", default=None)
    p.add_argument("--exact-check", action="store_true", default=None)
    p.add_argument("--table")

    p = add_parser("explore-min", help="sampled expected first witness at fixed length")
    p.add_argument("--target-tokens", type=int)
    p.add_argument("--arity", type=int)
    p.add_argument("--samples", type=int)

    p = add_parser("property-2-2", help="bound/reweighting equivalence check")
    p.add_argument("--n-list", type=_int_list)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--break-class", type=int)
    p.add_argument("--inflate", type=int)
    p.add_argument("--table")

    p = add_parser("property-2-3", help="summable-weights tractability transfer")
    p.add_argument("--model", choices=["sat", "shannon"])
    p.add_argument("--n-list", type=_int_list)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--h-exponent", type=int)
    p.add_argument("--table")

    p = add_parser("markov-tail", help="tail frequency against the mean")
    p.add_argument("--n", type=int)
    p.add_argument("--multiplier", type=int)
    p.add_argument("--table")
    return parser


COMMANDS = {
    "expected-min": cmd_expected_min, "sat-oclass": cmd_sat_oclass,
    "tab-oclass": cmd_tab_oclass, "moments": cmd_moments,
    "counting": cmd_counting, "tractability": cmd_tractability,
    "montecarlo": cmd_montecarlo, "explore-min": cmd_explore_min,
    "property-2-2": cmd_property_2_2, "property-2-3": cmd_property_2_3,
    "markov-tail": cmd_markov_tail,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = Options(args, _read_config(getattr(args, "config", None)))
        header, rows = COMMANDS[args.command](opts)
    except (OptionError, measure.MeasureError, FormulaError, SampleError) as exc:
        print(f"avgsat: {exc}", file=sys.stderr)
        return 2
    _emit(opts.get("out", None, cast=str), header, rows)
    failed = [(i, row) for i, row in enumerate(rows, start=1) if row and row[-1] == FAIL]
    for i, row in failed:
        cells = ", ".join(f"{name}={cell}" for name, cell in zip(header, row[:3]))
        print(f"avgsat: fail: row {i} of {len(rows)}: {cells}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
