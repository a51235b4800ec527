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
from typing import Any, Callable

from . import _kernel, engines, measure
from .formula import ConnectiveTable, Formula, FormulaError, ModelSet, codes_size

PASS = "pass"
FAIL = "fail"
EXPECTED_FAIL = "expected_fail"
INFO = "info"

# (command, model, n) triples whose bound is known not to hold; --audit
# reports them as expected_fail instead of fail.
KNOWN_DEVIATIONS = {("tab-oclass", "shannon", 1), ("tab-oclass", "shannon", 2)}


class SampleError(Exception):
    """A sampling command was asked for samples from a space with no
    sentences in it, or for too few samples to check."""


class OptionError(Exception):
    """A --config file cannot be read or holds a bad line, key or value,
    or an option's value is not one its command accepts."""


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
    """key -> (value, "PATH:LINE" where it was set), for keys that some
    command declares."""
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise OptionError(f"{path}:{lineno}: {key} = {value}: no command takes it")
        cfg[key] = value, f"{path}:{lineno}"
    return cfg


class Option:
    """A command's option: its flag, type (int, float, str, _int_list or
    bool) and default; if set, the choices it must be one of, the least
    and greatest value of it (or of each entry of its list), and its help.
    Its name is its attribute name and config key."""

    __slots__ = ("flag", "type", "default", "choices", "minimum", "maximum", "help", "name")

    def __init__(self, flag: str, type: Callable, default: Any = None, *,
                 choices: tuple | None = None, minimum: int | None = None,
                 maximum: int | None = None, help: str | None = None):
        self.flag, self.type, self.default, self.help = flag, type, default, help
        self.choices, self.minimum, self.maximum = choices, minimum, maximum
        self.name = flag[2:].replace("-", "_")


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class Options:
    """Option resolution against the running command's declaration: its
    flag, then its config value parsed with the declared type, then the
    declared default.  A config value is parsed when it is read."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, tuple[str, str]]):
        self.args, self.cfg = args, cfg
        self.declared = {o.name: o for o in (*GLOBALS, *COMMANDS[args.command].options)}

    def get(self, name: str, default=None):
        """The value of option ``name``.  ``default`` stands in for a
        declared default of None: one that depends on another option."""
        opt = self.declared[name]
        value = getattr(self.args, name, None)
        if value is not None:
            shown = ",".join(map(str, value)) if isinstance(value, list) else value
            where = f"{opt.flag} {shown}"
        elif name not in self.cfg:
            return default if opt.default is None else opt.default
        else:
            raw, line = self.cfg[name]
            where = f"{line}: {name} = {raw}"
            try:
                value = _BOOLEANS[raw.lower()] if opt.type is bool else opt.type(raw)
            except KeyError:
                raise OptionError(f"{where}: expected {', '.join(_BOOLEANS)}") from None
            except ValueError as exc:
                raise OptionError(f"{where}: {exc}") from exc
        if opt.choices is not None and value not in opt.choices:
            raise OptionError(f"{where}: choose from {', '.join(opt.choices)}")
        values = value if isinstance(value, list) else [value]
        if opt.minimum is not None and min(values, default=opt.minimum) < opt.minimum:
            raise OptionError(f"{where}: must be at least {opt.minimum}")
        if opt.maximum is not None and max(values, default=opt.maximum) > opt.maximum:
            raise OptionError(f"{where}: must be at most {opt.maximum}")
        return value


def _load_table(opts: Options) -> ConnectiveTable:
    path = opts.get("table")
    if not path:
        return ConnectiveTable.standard()
    try:
        return ConnectiveTable.from_file(path)
    except OSError as exc:
        raise FormulaError(f"table {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise FormulaError(f"table {path}: {exc}") from exc


def _emit(out_path: str | None, header: list[str], rows: list[list[str]]) -> None:
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- commands ---------------------------------------------------------


def cmd_expected_min(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    n = opts.get("n")
    ns = range(0, n + 1) if opts.get("upto") else [n]
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


def _scan_time(x) -> int:
    return engines.sat_scan(x).time_units


def _space(table: ConnectiveTable, n: int, max_tokens: int | None):
    """The covering space of n variables, or its sentences within max_tokens."""
    if max_tokens is None:
        return measure.covering_space(table, n)
    return measure.formula_space(table, n, max_tokens)


def cmd_sat_oclass(opts: Options):
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    table = _load_table(opts)
    header = ["check"] + measure.BoundReport.CSV_HEADER
    space = _space(table, n, max_tokens)
    mu = measure.uniform_over_model_classes(space, n)
    report = measure.oclass_member(space, _scan_time, lambda k: 2 * k, mu)
    rows = [["sat"] + row for row in report.csv_rows()]
    if table.negation_strategy() is None:
        rows.append(["co-skipped", str(n), "0", "1", "0", "1", "0.0", "0.0", INFO])
    else:
        # negation maps keys one to one, so the negated keys keep the counts
        co_space = measure.InputSpace.from_keys(
            {engines.negated_key(x, table): c for x, c in space.count.items()})
        mu_co = measure.uniform_over_model_classes(co_space, n)
        co_report = measure.oclass_member(co_space, _scan_time, lambda k: 2 * k, mu_co)
        rows.extend(["co"] + row for row in co_report.csv_rows())
    # measured share of the checker's time spent reading the input
    # (the linear bound alone would put it at 1/2); informational only
    read = measure.avg_time(lambda x: engines.rewrite_cost(x).time_units, mu, space.items)
    share = read / measure.avg_time(_scan_time, mu, space.items)
    rows.append(["read-share", str(n), *_frac(share), *_frac(Fraction(3, 10)),
                 _float(share), "0.3", INFO])
    return header, rows


def cmd_tab_oclass(opts: Options):
    audit = opts.get("audit")
    model = opts.get("model")
    ns = opts.get("n_list", [opts.get("n")])
    header = measure.BoundReport.CSV_HEADER
    rows = []
    if model == "shannon":
        from . import analytic  # loaded only by the commands that use it
        for n in sorted(ns):
            tb = analytic.tabulator_class_bound(n)
            known = audit and ("tab-oclass", "shannon", n) in KNOWN_DEVIATIONS
            status = PASS if tb.passed else EXPECTED_FAIL if known else FAIL
            rows.append([str(n), *_frac(tb.lhs), *_frac(tb.rhs),
                         _float(tb.lhs), _float(tb.rhs), status])
    else:
        table = _load_table(opts)
        max_tokens = opts.get("max_tokens")
        for n in sorted(ns):
            space = measure.layer_blocks(measure.formula_space(table, n, max_tokens), n)
            mu = measure.uniform_within_min_layers(space, n)
            T = lambda x: engines.tabulate(x).time_units
            report = measure.oclass_member(space, T, lambda k: k ** 3, mu)
            rows.extend(report.csv_rows())
    return header, rows


def cmd_moments(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    m_list = opts.get("m_list")
    n_list = opts.get("n_list")
    tol = Fraction(1, 10 ** opts.get("tol_exp"))
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
    for m in sorted(m for m in m_list if m >= 2):
        c = analytic.moment_oclass_constant(m)
        for n, (space, mu) in spaces.items():
            T = lambda x: _scan_time(x) ** m
            report = measure.oclass_member(space, T, lambda k: c * k ** m, mu)
            rows.extend(["oclass", str(m)] + row for row in report.csv_rows())
    return header, rows


def cmd_counting(opts: Options):
    from . import analytic  # loaded only by the commands that use it
    n_max = opts.get("n_max")
    p = opts.get("p")
    enum_limit = opts.get("enum_limit")
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


# each case's default --budget is the length of its trend scan
_CASES = {
    "harmonic": dict(T=lambda n: n, mu=lambda n: 1.0 / (n * n), budget=10 ** 6,
                     start=1, exact=False, expect=measure.Verdict.DIVERGENT_TREND),
    "geometric": dict(T=lambda n: 2 ** n, mu=lambda n: Fraction(1, 4 ** n), budget=60,
                      start=0, exact=True, expect=measure.Verdict.CONVERGENT),
    "constant": dict(T=lambda n: 5, mu=lambda n: Fraction(1, n), budget=60,
                     start=1, exact=True, expect=measure.Verdict.CONVERGENT),
}


def cmd_tractability(opts: Options):
    case = opts.get("case")
    case_def = _CASES[case]
    budget = opts.get("budget", case_def["budget"])
    start = case_def["start"]
    res = measure.tractability(case_def["T"], case_def["mu"], range(start, start + budget),
                               eps=opts.get("eps"), cap=opts.get("cap"),
                               exact=case_def["exact"])
    header = ["case", "prefix", "value_num", "value_den", "value_float",
              "verdict", "status"]
    status = PASS if res.verdict is case_def["expect"] else FAIL
    rows = [[case, str(k), *(_frac(v) if case_def["exact"] else ["", ""]), _float(v),
             res.verdict.value, status] for k, v in res.checkpoints.items()]
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
        self.totals = [(L, c) for L in range(1, max_tokens + 1) if (c := self.cnt[L][0])]
        self.grand_total = sum(c for _, c in self.totals)

    def codes_at(self, u: int) -> tuple[int, ...]:
        """The codes of the sentence of rank ``u``, for ``0 <= u < grand_total``."""
        for L, c in self.totals:
            if u < c:
                return _unrank(u, L, self.n_vars, self.table.arities, self.cnt)
            u -= c
        raise AssertionError("sampler index out of range")

    def sample(self, rng) -> Formula:
        return Formula(self.codes_at(rng.randrange(self.grand_total)), self.table)


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
    seed = opts.get("seed")
    n = opts.get("n")
    max_tokens = opts.get("max_tokens")
    exhaustive = opts.get("exhaustive")
    exact_check = opts.get("exact_check")
    table = _load_table(opts)
    exact_mean = z = ""
    status = PASS
    if exhaustive:
        space = measure.formula_space(table, n, max_tokens)
        if not space.items:
            raise SampleError(
                f"no sentences with {n} distinct variables within {max_tokens} tokens")
        # one (value, count) pair per key, never one value per sentence;
        # a key counts canonical sentences, each standing for n! sentences
        renamings = math.factorial(n)
        samples = sx = sxx = 0
        for x in space.items:
            c, v = renamings * space.count[x], _scan_time(x)
            samples += c
            sx += c * v
            sxx += c * v * v
        mean, se = _mean_stderr(samples, sx, sxx)
        exact = measure.avg_time(_scan_time, measure.uniform_on(space), space.items)
        exact_mean = _float(exact)
        status = PASS if mean == float(exact) else FAIL
    else:
        samples = opts.get("samples")
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
    rows = [["sat", str(n), str(max_tokens), str(samples), str(seed),
             _float(mean), _float(se), exact_mean, z, status]]
    return header, rows


def cmd_explore_min(opts: Options):
    seed = opts.get("seed")
    target = opts.get("target_tokens")
    arity = opts.get("arity")
    samples = opts.get("samples")
    table = ConnectiveTable.all_of_arity(arity)
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
    count: dict[tuple, int] = {}
    for n in sorted(ns):
        count.update(_space(table, n, max_tokens).count)
    return measure.InputSpace.from_keys(count)


def cmd_property_2_2(opts: Options):
    ns = opts.get("n_list")
    max_tokens = opts.get("max_tokens")
    break_class = opts.get("break_class")
    inflate = opts.get("inflate")
    table = _load_table(opts)
    space = _combined_space(table, ns, max_tokens)
    mu = measure.uniform_over_model_classes(space)
    T = lambda x: _scan_time(x) * (inflate if x[0] == break_class else 1)
    result = measure.check_property_2_2(
        space, T, lambda k: 2 * k, mu,
        extra_H=[("ones", lambda n: 1), ("linear", lambda n: n)])
    header = ["check", "label", "n", "lhs_num", "lhs_den", "rhs_num", "rhs_den",
              "lhs_float", "rhs_float", "status"]
    rows = []
    # with --break-class, the broken class fails as expected, and so do its
    # chi row and the rows of weightings over every class
    for r in sorted(result.oclass.rows, key=lambda r: r.n):
        status = PASS if r.passed else EXPECTED_FAIL if break_class == r.n else FAIL
        rows.append(["oclass", "", str(r.n), *_frac(r.lhs), *_frac(r.rhs),
                     _float(r.lhs), _float(r.rhs), status])
    for h in result.h_rows:
        broken = break_class is not None and (h.label == f"chi_{break_class}"
                                              or not h.label.startswith("chi_"))
        status = PASS if h.ok else EXPECTED_FAIL if broken else FAIL
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
    model = opts.get("model")
    exponent = opts.get("h_exponent")
    H = lambda n: Fraction(1, n ** exponent)
    ns = opts.get("n_list", [1, 2] if model == "sat" else [3, 4])
    if model == "sat":
        table = _load_table(opts)
        space = _combined_space(table, ns, opts.get("max_tokens"))
        mu = measure.uniform_over_model_classes(space, per_class=True)
        T = _scan_time
        F = lambda k: 2 * k
    else:
        from . import analytic  # loaded only by the commands that use it
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
    n = opts.get("n")
    multiplier = opts.get("multiplier")
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


class Command:
    """A command: the function it runs, its help line and its options."""

    __slots__ = ("run", "help", "options")

    def __init__(self, run: Callable, help: str, options: tuple[Option, ...]):
        self.run, self.help, self.options = run, help, options


# options that several commands declare alike
_TABLE = Option("--table", str)
_MAX_TOKENS = Option("--max-tokens", int)
_N_LIST = Option("--n-list", _int_list, (1, 2))

# every command: the function it runs, its help line and its own options
COMMANDS = {
    "expected-min": Command(cmd_expected_min, "expected first-witness bound", (
        # the exact sums have denominators of 2^n bits: 65,536 at n = 16
        Option("--n", int, 1, minimum=0, maximum=16),
        Option("--upto", bool, False, help="emit every n from 0 to --n"))),
    "sat-oclass": Command(cmd_sat_oclass, "linear bound for the satisfiability scanner", (
        Option("--n", int, 1), _MAX_TOKENS, _TABLE)),
    "tab-oclass": Command(cmd_tab_oclass, "cubic bound for the tabulator", (
        Option("--n", int, 3, minimum=1),
        Option("--n-list", _int_list, minimum=1),  # default [--n]
        Option("--model", str, "shannon", choices=("shannon", "enumerated")),
        Option("--max-tokens", int, 7), _TABLE)),
    "moments": Command(cmd_moments, "higher-moment sums and bounds", (
        Option("--m-list", _int_list, (2, 3), minimum=1), _N_LIST,
        Option("--tol-exp", int, 12, minimum=0), _TABLE)),
    "counting": Command(cmd_counting, "sentence shape counts and cost-ratio series", (
        Option("--n-max", int, 10, minimum=0), Option("--p", int, 2),
        Option("--enum-limit", int, 3))),
    "tractability": Command(cmd_tractability, "partial-average trend scans", (
        Option("--case", str, "harmonic", choices=tuple(sorted(_CASES))),
        Option("--budget", int),  # default by --case
        Option("--eps", float, 1e-12), Option("--cap", float, 1e6))),
    "montecarlo": Command(cmd_montecarlo, "seeded sampling estimate of the average time", (
        Option("--n", int, 2), Option("--max-tokens", int, 8),
        Option("--samples", int, 100000, minimum=1), Option("--exhaustive", bool, False),
        Option("--exact-check", bool, False), _TABLE)),
    "explore-min": Command(cmd_explore_min,
                           "sampled expected first witness at fixed length", (
        Option("--target-tokens", int, 9),
        Option("--arity", int, 2, minimum=1, maximum=3),  # the tables all_of_arity builds
        Option("--samples", int, 10000, minimum=1))),
    "property-2-2": Command(cmd_property_2_2, "bound/reweighting equivalence check", (
        _N_LIST, _MAX_TOKENS, Option("--break-class", int), Option("--inflate", int, 4),
        _TABLE)),
    "property-2-3": Command(cmd_property_2_3, "summable-weights tractability transfer", (
        Option("--model", str, "sat", choices=("sat", "shannon")),
        Option("--n-list", _int_list, minimum=1),  # default by --model
        _MAX_TOKENS, Option("--h-exponent", int, 2, minimum=0), _TABLE)),
    "markov-tail": Command(cmd_markov_tail, "tail frequency against the mean", (
        Option("--n", int, 2), Option("--multiplier", int, 100, minimum=1), _TABLE)),
}

# options of every command, given before or after its name
GLOBALS = (
    Option("--config", str, help="flat key = value option file"),
    Option("--out", str, help="CSV output path (default stdout)"),
    Option("--seed", int, 0, help="Monte Carlo seed (default 0)"),
    Option("--audit", bool, False, help="report known deviations as expected_fail"),
)

# the config keys some command takes; any other key is an error
_KEYS = {o.name for o in GLOBALS} | {o.name for c in COMMANDS.values() for o in c.options}


class _Defer(Exception):
    """A one-command parser cannot answer as the full parser would."""


class _OneCommand(argparse.ArgumentParser):
    """The top level of a parser holding one command's subparser: its
    help and its errors would list that command alone, so both defer to
    the full parser."""

    def error(self, message):
        raise _Defer

    def print_help(self, file=None):
        raise _Defer


def _add_option(parser: argparse.ArgumentParser, opt: Option, default) -> None:
    kind = (dict(action="store_true") if opt.type is bool
            else dict(type=opt.type, choices=opt.choices))
    parser.add_argument(opt.flag, default=default, help=opt.help, **kind)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given ``command``, one that holds
    only its subparser (argparse spends most of its build time on the
    help strings of subparsers that never run).  Command options default
    to None, so that an unset flag defers to the config file."""
    common = argparse.ArgumentParser(add_help=False)
    for opt in GLOBALS:
        _add_option(common, opt, argparse.SUPPRESS)
    parser = (argparse.ArgumentParser if command is None else _OneCommand)(
        prog="avgsat", parents=[common],
        description="Average running time experiments over propositional sentence spaces")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    for name, cmd in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=cmd.help, parents=[common])
            for opt in cmd.options:
                _add_option(p, opt, None)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The full parser's parse of argv, built for one command where it can."""
    try:
        # the first command name is the command unless it is an option's
        # value, in which case the one-command parser fails and defers
        return _build_parser(next((a for a in argv if a in COMMANDS), None)).parse_args(argv)
    except _Defer:
        return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        opts = Options(args, _read_config(getattr(args, "config", None)))
        header, rows = COMMANDS[args.command].run(opts)
    except (OptionError, measure.MeasureError, FormulaError, SampleError) as exc:
        print(f"avgsat: {exc}", file=sys.stderr)
        return 2
    _emit(opts.get("out"), header, rows)
    failed = [(i, row) for i, row in enumerate(rows, start=1) if row and row[-1] == FAIL]
    for i, row in failed:
        cells = ", ".join(f"{name}={cell}" for name, cell in zip(header, row[:3]))
        print(f"avgsat: fail: row {i} of {len(rows)}: {cells}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
