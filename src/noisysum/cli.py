"""Command-line interface.

Every subcommand follows one pipeline: resolve its inputs, resolve the
estimator sizes (k, m, t) where it has them, run, and return the output
text.  ``main`` writes that text once, to --output via
write-to-temp-then-rename or to stdout, and maps exceptions to exit codes:
0 success; 1 a checked property failed (identity residual over tolerance;
the report is still written); 2 unusable input (flags or data files,
including an input path that cannot be read or an --output path that
cannot be written, a negative --seed, and a plan or experiment flag that
the run does not read, or a plan flag that the planner would replace);
3 infeasible request (missing sampling source, plan order out of range,
a plan size beyond the float range or 2^63, enumeration budget; an
estimate, oracle outcome value or moment, bias-decay sum or expectation,
population or trial statistic beyond the float range; any other
OverflowError, such as a size beyond the int64 index range; an array too
large to allocate).

Runs are deterministic for fixed flags.  --seed must be at least 0 and
defaults to 0 wherever it is read: oracle, which enumerates exactly and
draws nothing, has no --seed, and lowerbound reads it only with
--scenario.  One table, ``_SIMULATE``, declares each simulate experiment's
runner and the flags it reads, with their defaults; cmd_simulate checks the
required ones, refuses any other experiment flag, fills the defaults and
passes the runner only those flags, and ``simulate --help`` prints the same
table.  bias-decay, computed exactly, reads no --trials, --seed or
--threads.  --threads (default 1) sets the number of worker processes,
capped at the CPUs the process may run on; it changes only elapsed time,
never bytes.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .estimators import (
    InfeasiblePlanError,
    NonFiniteEstimateError,
    _two_stage,
    estimate_sum,
    improved_estimate_sum,
    plan_parameters,
    required_order,
)
from .harness import (
    ERROR_FUNCTIONALS,
    ExperimentRecord,
    TrialConfig,
    bias_decay_sweep,
    distinguishability_experiment,
    run_trials,
    zero_one_experiment,
)
from .identities import identity_report
from .io import InputFormatError, atomic_write_text, load_population, load_sample_indices
from .lowerbound import (
    build_reduction_instance,
    construct_matched_pair,
    frequency_moment,
    realize_integer_counts,
    spectrum_to_json_dict,
    support_gap_closed_form,
)
from .model import SampleBatch, pair_from_distributions, population_stats
from .oracle import BudgetExceededError, exact_estimator_moments

RESIDUAL_TOLERANCE = 1e-9


# Errors that exit 3; any other handled error exits 2.
_INFEASIBLE = (
    InfeasiblePlanError, BudgetExceededError, NonFiniteEstimateError, OverflowError, MemoryError
)


class PropertyViolation(Exception):
    """A checked mathematical property failed; maps to exit code 1.

    ``output`` is the report that shows the failure; it is still written.
    """

    def __init__(self, message: str, output: str):
        super().__init__(message)
        self.output = output


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _refuse_given(args, flags, message) -> None:
    """Refuse the first of ``flags`` (argparse dests, default None) that was
    given, naming it in ``message``: a flag the run would not read is never
    silently dropped."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise InputFormatError(message.format(flag="--" + flag.replace("_", "-")))


def _gamma(text: str, kind):
    """--gamma parsed by ``kind``, float or Fraction; a malformed value is
    refused with a message naming the flag."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides by zero
        what = "a float" if kind is float else "an exact rational such as '1/2'"
        raise InputFormatError(f"--gamma must be {what}, got {text!r}") from None


def _resolve_sizes(args, data, gamma) -> tuple[int, int, int]:
    """(k, m, t) from --k and --m (t defaults to m), or planned from --eps1/--eps2."""
    if args.k is not None and args.m is not None:
        return args.k, args.m, args.m if args.t is None else args.t
    if args.eps1 is None or args.eps2 is None:
        raise InputFormatError("simulation needs --k and --m, or --eps1 with --eps2")
    _refuse_given(
        args, ("k", "m", "t"),
        "{flag} is planned from --eps1 and --eps2; give both --k and --m to set the sizes",
    )
    stats = population_stats(data.population, data.nominal)
    plan = plan_parameters(gamma, args.eps1, args.eps2, stats.n_tilde, stats.var_hh)
    return plan.k, plan.m, plan.t


def cmd_estimate(args) -> str:
    if args.w is not None and (not args.samples or args.t):
        raise InputFormatError(
            "--w fixes the pilot only with --samples and --t 0; "
            "otherwise the pilot stage of --t samples estimates it"
        )
    data = load_population(args.input)
    pop, nominal = data.population, data.nominal
    if args.samples:
        _refuse_given(args, ("m", "eps2"), "estimate --samples does not read {flag}")
        indices = load_sample_indices(args.samples)
        t = args.t if args.t is not None else 0
        if t < 0 or t >= indices.size:
            raise InputFormatError("--t must leave at least one sample for the main stage")
        if args.k is not None:
            _refuse_given(
                args, ("gamma", "eps1"), "estimate --samples with --k does not read {flag}"
            )
            k = args.k
        elif args.gamma is not None and args.eps1 is not None:
            k = required_order(args.gamma, args.eps1)
        else:
            raise InputFormatError("offline mode needs --k, or --gamma with --eps1")
        main = SampleBatch(indices=indices[t:], seed=args.seed)
        if t > 0:
            pilot = SampleBatch(indices=indices[:t], seed=args.seed)
            report = _two_stage((pilot, main), k, pop, nominal, args.seed)
        else:
            report = estimate_sum(main, k, 0.0 if args.w is None else args.w, pop, nominal)
    elif data.true_dist is not None:
        if args.k is not None and args.m is not None:
            _refuse_given(args, ("eps1", "eps2"), "estimate with --k and --m does not read {flag}")
        pair = pair_from_distributions(nominal, data.true_dist, args.gamma)
        k, m, t = _resolve_sizes(args, data, pair.gamma_bound)
        report = improved_estimate_sum(pop, pair, m, t, k, args.seed)
    else:
        raise InfeasiblePlanError(
            "no sampling source: add a q column to the input (simulation mode) "
            "or pass --samples with pre-drawn indices (offline mode)"
        )
    return _json_text(report.to_json_dict())


# Each experiment reads its flags, defaults filled, and returns its rows, dicts
# keyed in column order; cmd_simulate formats them.
def _zero_one(args):
    record = zero_one_experiment(
        n=args.n, fraction_ones=args.fraction_ones, gamma=_gamma(args.gamma, float), eps=args.eps1,
        trials=args.trials, base_seed=args.seed, threads=args.threads,
    )
    return [record.row()]


def _trials(args):
    gamma_flag = None if args.gamma is None else _gamma(args.gamma, float)
    data = load_population(args.input) if args.input else None
    if data is None or data.true_dist is None:
        raise InputFormatError("trials mode needs --input with a q column")
    pair = pair_from_distributions(data.nominal, data.true_dist, gamma_flag)
    k, m, t = _resolve_sizes(args, data, pair.gamma_bound)
    # Given sizes leave the accuracy targets optional; an absent one budgets 0.0.
    eps1, eps2 = (0.0 if eps is None else eps for eps in (args.eps1, args.eps2))
    config = TrialConfig(
        pop=data.population, pair=pair, k=k, m=m, t=t, trials=args.trials,
        base_seed=args.seed, eps1=eps1, eps2=eps2, error_functional=args.functional,
    )
    record = ExperimentRecord("trials", config, run_trials(config, threads=args.threads))
    return [record.row()]


def _bias_decay(args):
    gamma = _gamma(args.gamma, float)
    data = load_population(args.input)
    sweep = bias_decay_sweep(data.population, data.nominal, gamma, range(1, args.kmax + 1))
    return [asdict(row) for row in sweep]


def _distinguish(args):
    gamma = _gamma(args.gamma, Fraction)
    m_values = [int(v) for v in args.m_grid.split(",") if v.strip()]
    if not m_values:
        raise InputFormatError("--m-grid must list at least one m")
    realized = realize_integer_counts(construct_matched_pair(args.k, gamma, args.n0))
    sweep = distinguishability_experiment(
        realized, m_values, trials=args.trials, base_seed=args.seed,
        threads=args.threads, null_calibration=args.null,
    )
    return [asdict(row) for row in sweep]


_REQUIRED = object()  # marks a flag that an experiment cannot run without

# Each experiment's runner and the simulate flags it reads, with their
# defaults (None: optional, no default).  Every other experiment flag is
# refused; the required ones are named in this order.
_SIMULATE = {
    "zero-one": (_zero_one, {
        "n": 10000, "fraction_ones": 0.5, "gamma": _REQUIRED, "eps1": _REQUIRED,
        "trials": 1000, "seed": 0, "threads": 1,
    }),
    "trials": (_trials, {
        "input": None, "gamma": None, "eps1": None, "eps2": None, "k": None, "m": None,
        "t": None, "trials": 1000, "functional": "mean_abs_dev", "seed": 0, "threads": 1,
    }),
    # computed exactly: draws nothing and runs no workers
    "bias-decay": (_bias_decay, {"input": _REQUIRED, "gamma": _REQUIRED, "kmax": 6}),
    "distinguish": (_distinguish, {
        "k": _REQUIRED, "gamma": _REQUIRED, "n0": _REQUIRED, "m_grid": "200,600,2000",
        "null": False, "trials": 1000, "seed": 0, "threads": 1,
    }),
}

# Every flag some experiment reads; each parses to None when not given.
_SIMULATE_FLAGS = dict.fromkeys(flag for _, reads in _SIMULATE.values() for flag in reads)


def _reads_help(flag: str, text: str) -> str:
    """simulate --help for ``flag``: ``text``, then which experiments read it, with defaults."""
    said = []
    for exp, (_, reads) in _SIMULATE.items():
        if flag in reads:
            default = reads[flag]
            note = {None: "", _REQUIRED: " (required)"}.get(default, f" (default {default})")
            said.append(exp + note)
    return "; ".join([text] * bool(text) + ["read by " + ", ".join(said)])


def cmd_simulate(args) -> str:
    run, reads = _SIMULATE[args.exp]
    needs = [flag for flag, default in reads.items() if default is _REQUIRED]
    if any(getattr(args, flag) is None for flag in needs):
        *head, last = ("--" + flag.replace("_", "-") for flag in needs)  # "--k, --gamma, and --n0"
        listed = ", ".join(head) + "," * (len(head) > 1) + " and " + last
        raise InputFormatError(f"{args.exp} needs {listed}")
    # vars() lists the flags in parser order
    unread = [flag for flag in vars(args) if flag in _SIMULATE_FLAGS and flag not in reads]
    _refuse_given(args, unread, f"simulate --exp {args.exp} does not read {{flag}}")
    values = {flag: default if getattr(args, flag) is None else getattr(args, flag)
              for flag, default in reads.items()}
    if values.get("threads", 1) < 1:
        raise InputFormatError("thread count must be at least 1")
    rows = run(argparse.Namespace(**values))
    if args.format == "json":
        return _json_text(rows)
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


def cmd_oracle(args) -> str:
    data = load_population(args.input)
    if data.true_dist is None:
        raise InputFormatError("the oracle needs a q column in the input")
    pair = pair_from_distributions(data.nominal, data.true_dist, args.gamma)
    try:
        moments = exact_estimator_moments(
            data.population, pair, m=args.m, k=args.k, pilot=args.w
        )
    except OverflowError as exc:  # a weight, an outcome value or a moment beyond the float range
        raise OverflowError(f"oracle moments leave the float range: {exc}") from None
    return _json_text({**asdict(moments), "m": args.m, "k": args.k, "pilot_W": args.w})


def cmd_identities(args) -> str:
    report = identity_report(args.kmax, seed=args.seed, trials=args.trials)
    report["tolerance"] = RESIDUAL_TOLERANCE
    worst = max(
        report["bias_cancellation_max_residual"],
        report["centered_product_max_residual"],
        report["centered_sum_max_residual"],
    )
    ok = worst <= RESIDUAL_TOLERANCE and report["collision_coefficient_mismatches"] == 0
    report["ok"] = ok
    text = _json_text(report)
    if not ok:
        raise PropertyViolation(
            f"identity residual {worst!r} above {RESIDUAL_TOLERANCE}", text
        )
    return text


def cmd_lowerbound(args) -> str:
    if args.scenario and not args.realize:
        raise InputFormatError("--scenario needs --realize")
    if not args.scenario:
        _refuse_given(args, ("seed",), "lowerbound without --scenario does not read {flag}")
    gamma = _gamma(args.gamma, Fraction)
    pair = construct_matched_pair(args.k, gamma, args.n0)
    moments = []
    for ell in range(1, args.k + 2):
        m1 = frequency_moment(pair.d1, ell)
        m2 = frequency_moment(pair.d2, ell)
        moments.append(
            {"ell": ell, "d1": str(m1), "d2": str(m2), "equal": m1 == m2}
        )
    payload = {
        "k": args.k,
        "gamma": str(gamma),
        "n0": args.n0,
        "n1": str(pair.n1),
        "n2": str(pair.n2),
        "gap": str(pair.gap),
        "closed_form_gap": str(support_gap_closed_form(args.k, gamma, args.n0)),
        "d1": spectrum_to_json_dict(pair.d1),
        "d2": spectrum_to_json_dict(pair.d2),
        "moments": moments,
    }
    if args.realize:
        realized = realize_integer_counts(pair)
        payload["realized"] = {
            "n1": realized.n1,
            "n2": realized.n2,
            "gap": realized.gap,
            "moment_error": realized.moment_error,
            "d1": spectrum_to_json_dict(realized.d1),
            "d2": spectrum_to_json_dict(realized.d2),
        }
        if args.scenario:
            inst = build_reduction_instance(realized, args.scenario, args.seed or 0)
            payload["instance"] = {
                "scenario": inst.scenario,
                "N": inst.population.size,
                "true_sum": inst.true_sum,
                "closeness": inst.closeness,
            }
    return _json_text(payload)


class _Seed(argparse.Action):
    """Stores --seed, refused below 0 (numpy's generators take no negative seed)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be at least 0, got {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisysum",
        description="Bias-reducing sum estimation under imprecise sampling weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--output", help="write here (atomic); stdout otherwise")

    def seed(add, **kwargs):
        add("--seed", type=int, action=_Seed, **kwargs)

    def plan(add):  # the estimator's sizes, given or planned from accuracy targets
        add("--eps1", type=float)
        add("--eps2", type=float)
        add("--k", type=int)
        add("--m", type=int)
        add("--t", type=int)

    p_est = sub.add_parser("estimate", help="one estimate from a population file")
    p_est.add_argument("--input", required=True)
    p_est.add_argument("--samples", help="pre-drawn 1-based indices, one per line")
    p_est.add_argument("--gamma", type=float)
    plan(p_est.add_argument)
    p_est.add_argument(
        "--w", type=float, help="fixed pilot W, only with --samples and --t 0 (default 0.0)"
    )
    common(p_est, cmd_estimate)
    seed(p_est.add_argument, default=0)

    p_sim = sub.add_parser("simulate", help="repeated-trial experiments")

    def read(option, text="", **kwargs):  # an experiment flag; help names its readers
        p_sim.add_argument(option, help=_reads_help(option[2:].replace("-", "_"), text), **kwargs)

    p_sim.add_argument("--exp", choices=tuple(_SIMULATE), default="zero-one")
    read("--input")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    read("--n", type=int)
    read("--fraction-ones", type=float)
    read("--gamma", "a float, or exact like '1/2' for distinguish")
    plan(read)
    read("--trials", type=int)
    read("--kmax", type=int)
    read("--n0", type=int)
    read("--m-grid")
    read("--null", "feed both arms the same scenario", action="store_true")
    read("--functional", choices=ERROR_FUNCTIONALS)
    common(p_sim, cmd_simulate)
    seed(read)
    read("--threads", "worker count; never changes results", type=int)
    # A given flag that the experiment does not read is refused, not dropped.
    p_sim.set_defaults(**_SIMULATE_FLAGS)

    p_or = sub.add_parser("oracle", help="exact moments by enumeration")
    p_or.add_argument("--input", required=True)
    p_or.add_argument("--m", type=int, required=True)
    p_or.add_argument("--k", type=int, required=True)
    p_or.add_argument("--w", type=float, default=0.0)
    p_or.add_argument("--gamma", type=float)
    common(p_or, cmd_oracle)

    p_id = sub.add_parser("identities", help="residuals of the cancellation identities")
    p_id.add_argument("--kmax", type=int, default=20)
    p_id.add_argument("--trials", type=int, default=100)
    common(p_id, cmd_identities)
    seed(p_id.add_argument, default=0)

    p_lb = sub.add_parser("lowerbound", help="moment-matched spectra, exact rationals")
    p_lb.add_argument("--k", type=int, required=True)
    p_lb.add_argument("--gamma", required=True, help="exact rational, e.g. '1/2'")
    p_lb.add_argument("--n0", type=int, required=True)
    p_lb.add_argument("--realize", action="store_true")
    p_lb.add_argument("--scenario", choices=("ones-large", "ones-small"))
    common(p_lb, cmd_lowerbound)
    seed(p_lb.add_argument, help="read only with --scenario (default 0)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, code = args.run(args), 0
    except PropertyViolation as exc:
        print(f"noisysum: {exc}", file=sys.stderr)
        text, code = exc.output, 1
    except (*_INFEASIBLE, ValueError, TypeError, ZeroDivisionError, OSError) as exc:
        print(f"noisysum: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _INFEASIBLE) else 2
    try:
        if args.output:
            atomic_write_text(args.output, text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        target = args.output or "stdout"
        print(f"noisysum: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
