"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run-all [--filter TOKEN ...]``
    Execute the experiment registry through the artifact pipeline:
    results persist under ``results/`` with a provenance manifest,
    unchanged experiments are cache hits, and EXPERIMENTS.md is
    regenerated.  ``--filter`` selects by id, tag, or anchor substring;
    ``--jobs N`` fans out over the fork-once worker pool.
``report``
    Regenerate EXPERIMENTS.md from the stored artifacts without
    running anything.
``experiments [names...]``
    Run the paper-reproduction experiments (default: all) and print the
    regenerated tables + shape checks (no persistence — see ``run-all``
    for the artifact pipeline).
``certify <net.npz> --epsilon E --epsilon-prime E'``
    Load a saved network and print its robustness certificate
    (crash or Byzantine mode).
``inspect <net.npz>``
    Topology summary and the structural quantities the bounds read.
``survival <net.npz> --p-fail P --epsilon E --epsilon-prime E'``
    Certified survival probability under i.i.d. neuron failures.
``campaign <net.npz> [--exhaustive N | --distribution f1,f2,...]``
    Mask-native fault-injection campaign: Monte-Carlo over a fixed
    per-layer distribution, or the exhaustive sweep of all ``C(n, N)``
    crash configurations.  ``--fault`` selects any model in the
    taxonomy — static (crash / byzantine / stuck / offset), stochastic
    (noise / intermittent / sign-flip) or synapse-grained
    (synapse-crash / synapse-byzantine / synapse-noise, with
    ``--distribution`` then naming per-stage synapse counts, length
    L+1) — all on the same engine.
``chaos <net.npz> --process poisson --rate R --policy rejuvenate --epochs N``
    Temporal chaos campaign (the deployment-lifecycle subsystem): a
    fleet of replicas serves traffic over discrete epochs while fault
    processes degrade it, detectors watch the error series, and a
    repair policy heals it; prints the SLO report (availability,
    time-to-first-violation, MTBF/MTTR, detector precision/recall).
``obs <record.json> [--openmetrics | --jsonl | --profile]``
    Inspect a run's observability record (saved via ``--obs PATH`` on
    campaign/survival/chaos, or ``ObsSpec(record=...)`` in a spec):
    span tree + metrics table by default, or the OpenMetrics text
    exposition, the JSONL event stream, or the per-phase profile view.
``serve [--socket PATH | --port N] [--max-inflight N] [--queue-depth N]``
    Run the resident campaign service: an asyncio daemon that accepts
    spec jobs over JSONL, coalesces identical submissions by content
    hash, answers repeats from the artifact store, streams per-chunk
    progress, and sheds load with typed responses (see
    :mod:`repro.service`).
``submit <spec.json> [--stream] [--timeout S] [--json]``
    Send one campaign/survival/chaos spec to a running service and
    print the result (exit 1 on a typed rejected/timeout/error
    terminal, exit 2 when no daemon answers or the spec is malformed).
``shutdown [--no-drain]``
    Stop a running service, draining in-flight jobs by default.

The ``campaign``, ``survival`` and ``chaos`` commands are thin shells
over the declarative run-spec layer (:mod:`repro.specs`): argparse
flags build a spec, ``repro.run(spec)`` executes it.  Each carries
``--dump-spec`` (print the spec JSON instead of running — the exact
workload as versioned, hashable data) and ``--spec FILE`` (run from a
stored spec; a positional network path overrides the spec's network).
``--dump-spec`` output round-trips byte-identically through
``--spec``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _bounded(cast, minimum, message, *, maximum=None, exclusive=False):
    """An argparse type: ``cast`` the token, reject values < ``minimum``
    (or ``<=``/``>=`` the bounds with ``exclusive=True``, and above
    ``maximum`` when one is given) with ``message`` — the shared shape
    of every numeric CLI guard."""

    kind = "an integer" if cast is int else "a number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind}, got {text!r}"
            )
        below = value <= minimum if exclusive else value < minimum
        above = maximum is not None and (
            value >= maximum if exclusive else value > maximum
        )
        if below or above:
            raise argparse.ArgumentTypeError(f"{message}, got {value}")
        return value

    return parse


_positive_int = _bounded(int, 1, "expected a positive integer")
_nonneg_int = _bounded(int, 0, "expected a nonnegative integer")
_nonneg_float = _bounded(float, 0, "expected a nonnegative number")
#: Worker counts: 0 means in-process, negatives are an error.
_workers_count = _bounded(int, 0, "worker count must be >= 0 (0 = in-process)")
#: CI widths and confidence deltas live strictly inside (0, 1).
_unit_open_float = _bounded(
    float, 0, "expected a number strictly between 0 and 1",
    maximum=1, exclusive=True,
)
#: Probabilities: the closed unit interval.
_unit_float = _bounded(
    float, 0, "expected a probability in [0, 1]", maximum=1,
)


def _engine_backends():
    """The spec layer's backend names (pure data — safe at parser-build
    time, no numerical imports)."""
    from .specs.model import ENGINE_BACKENDS

    return ENGINE_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'When Neurons Fail' (IPDPS 2017): "
        "fault-tolerance bounds for feed-forward neural networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_all = sub.add_parser(
        "run-all",
        help="run the experiment registry with artifact caching",
    )
    p_all.add_argument(
        "--filter", action="append", default=None, dest="filters",
        metavar="TOKEN",
        help="select experiments by id, tag, or anchor substring "
             "(repeatable; default: everything)",
    )
    p_all.add_argument(
        "--list", action="store_true",
        help="list the selected experiments and exit",
    )
    p_all.add_argument(
        "--force", action="store_true",
        help="re-run even on a cache hit",
    )
    p_all.add_argument(
        "--jobs", type=_workers_count, default=0, metavar="N",
        help="worker processes (0 = in-process)",
    )
    p_all.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="artifact store root (default: results/)",
    )
    p_all.add_argument(
        "--experiments-md", default="EXPERIMENTS.md", metavar="PATH",
        help="regenerated report path (default EXPERIMENTS.md; "
             "'-' skips the write)",
    )

    p_rep = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md from stored artifacts"
    )
    p_rep.add_argument(
        "--results-dir", default="results", metavar="DIR",
        help="artifact store root (default: results/)",
    )
    p_rep.add_argument(
        "--output", default="EXPERIMENTS.md", metavar="PATH",
        help="where to write the report (default EXPERIMENTS.md)",
    )

    p_exp = sub.add_parser(
        "experiments", help="run paper-reproduction experiments"
    )
    p_exp.add_argument(
        "names", nargs="*", help="experiment ids (default: all); see --list"
    )
    p_exp.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    p_exp.add_argument(
        "--markdown", metavar="PATH", default=None,
        help="also write a Markdown report to PATH",
    )

    def add_eps(p, required=True):
        p.add_argument("--epsilon", type=float, required=required,
                       default=None, help="required accuracy eps")
        p.add_argument("--epsilon-prime", type=float, required=required,
                       default=None,
                       help="achieved over-provisioned accuracy eps' (< eps)")

    def add_spec_io(p):
        """The declarative escape hatch every workload command carries:
        run from a stored spec, or print the spec argparse would build."""
        p.add_argument(
            "--spec", metavar="FILE", default=None,
            help="run from a JSON run-spec file instead of flags: the "
                 "file defines the whole workload (explicit workload "
                 "flags are rejected, remaining flags ignored); a "
                 "positional network path, if given, overrides the "
                 "spec's network",
        )
        p.add_argument(
            "--dump-spec", action="store_true",
            help="print the run spec as JSON and exit without running "
                 "(the --spec input format; round-trips byte-identically)",
        )

    def add_obs(p):
        """Observability flags every workload command carries."""
        p.add_argument(
            "--obs", metavar="RECORD", default=None,
            help="observe the run — span trace + metrics registry — "
                 "and persist the record to RECORD.json (inspect it "
                 "with 'repro obs'); never changes results",
        )
        p.add_argument(
            "--profile", action="store_true",
            help="report per-phase wall time (sampling / compile / "
                 "gemm / corrections / reduction), serial or parallel",
        )

    def add_stopping(p):
        """Adaptive-sampling flags shared by campaign and survival —
        all default to None so ``--spec`` conflict detection sees only
        explicitly-typed values."""
        from .specs.model import ALLOCATION_KINDS, STOPPING_METHODS

        p.add_argument(
            "--target-ci", type=_unit_open_float, default=None, metavar="W",
            help="adaptive early stop: halt at the first chunk boundary "
                 "where the anytime-valid CI on the violation rate is "
                 "narrower than W (strictly between 0 and 1)",
        )
        p.add_argument(
            "--delta", type=_unit_open_float, default=None, metavar="D",
            help="confidence budget of the adaptive CI, strictly between "
                 "0 and 1 (default 0.05: the interval holds with "
                 "probability >= 0.95 over all looks)",
        )
        p.add_argument(
            "--stopping-method", choices=STOPPING_METHODS, default=None,
            help="confidence-sequence family (default hoeffding; "
                 "empirical_bernstein adapts to the observed variance — "
                 "the rare-event choice)",
        )
        p.add_argument(
            "--min-scenarios", type=_positive_int, default=None, metavar="N",
            help="scenarios to draw before the first stop decision "
                 "(default 1024)",
        )
        p.add_argument(
            "--stratify", action="store_true", default=None,
            help="stratified estimator over total-fault-count shells "
                 "(Theorem-3-certified shells skipped) instead of the "
                 "confidence sequence; needs Bernoulli sampling and a "
                 "neuron fault",
        )
        p.add_argument(
            "--allocation", choices=ALLOCATION_KINDS, default=None,
            help="stratified budget split (default proportional = exactly "
                 "unbiased; neyman pilots each shell; rare spreads "
                 "uniformly over uncertified shells — the "
                 "importance-weighted rare-event path)",
        )

    p_cert = sub.add_parser("certify", help="certify a saved network")
    p_cert.add_argument("network", help="path to a save_network() .npz archive")
    add_eps(p_cert)
    p_cert.add_argument("--mode", choices=("crash", "byzantine"), default="crash")
    p_cert.add_argument("--capacity", type=float, default=None,
                        help="transmission capacity C (byzantine mode)")

    p_ins = sub.add_parser("inspect", help="topology summary of a saved network")
    p_ins.add_argument("network", help="path to a save_network() .npz archive")

    p_sur = sub.add_parser(
        "survival", help="certified survival probability under iid failures"
    )
    p_sur.add_argument("network", nargs="?", default=None,
                       help="path to a save_network() .npz archive")
    add_eps(p_sur, required=False)
    p_sur.add_argument("--p-fail", type=float, default=None,
                       help="per-neuron failure probability")
    p_sur.add_argument("--mode", choices=("crash", "byzantine"), default="crash")
    p_sur.add_argument("--capacity", type=float, default=None)
    p_sur.add_argument(
        "--method", choices=("certified", "monte_carlo"), default=None,
        help="certified Theorem-3 lower bound (default) or Monte-Carlo "
             "injection estimate; any adaptive flag implies monte_carlo",
    )
    p_sur.add_argument(
        "--n-trials", type=_positive_int, default=None, metavar="N",
        help="Monte-Carlo trial count — the hard cap when an adaptive "
             "stop is set (default 500)",
    )
    p_sur.add_argument("--workers", type=_workers_count, default=0,
                       help="worker processes for the Monte-Carlo "
                            "estimate (0 = in-process)")
    add_stopping(p_sur)
    add_spec_io(p_sur)
    add_obs(p_sur)

    p_cam = sub.add_parser(
        "campaign", help="mask-native fault-injection campaign"
    )
    p_cam.add_argument("network", nargs="?", default=None,
                       help="path to a save_network() .npz archive")
    group = p_cam.add_mutually_exclusive_group()
    group.add_argument(
        "--distribution", metavar="f1,f2,...",
        help="per-layer failure counts for a Monte-Carlo campaign",
    )
    group.add_argument(
        "--exhaustive", type=int, metavar="N_FAIL",
        help="evaluate every configuration of exactly N_FAIL crashes",
    )
    group.add_argument(
        "--p-fail", type=_unit_float, default=None, metavar="P",
        help="Bernoulli campaign: fail every component independently "
             "with probability P (the survival workload's sampler; "
             "required for --stratify)",
    )
    p_cam.add_argument("--n-scenarios", type=_positive_int, default=None,
                       help="Monte-Carlo sample count (default 10000; "
                            "Monte-Carlo only)")
    p_cam.add_argument("--fault",
                       choices=("crash", "byzantine", "stuck", "offset",
                                "noise", "intermittent", "sign-flip",
                                "synapse-crash", "synapse-byzantine",
                                "synapse-noise"),
                       default=None,
                       help="fault model (default crash; Monte-Carlo only — "
                            "the exhaustive sweep is crash by definition). "
                            "synapse-* faults read --distribution as "
                            "per-stage synapse counts (length L+1)")
    p_cam.add_argument("--value", type=float, default=None,
                       help="fault magnitude: stuck-at value / additive "
                            "offset (default 1.0), or the requested "
                            "Byzantine emission / synapse offset "
                            "(default: saturate the capacity)")
    p_cam.add_argument("--sigma", type=float, default=0.1,
                       help="noise std-dev for --fault noise / "
                            "synapse-noise (default 0.1)")
    p_cam.add_argument("--p-transient", type=float, default=0.5,
                       help="per-evaluation hit probability for "
                            "--fault intermittent (default 0.5)")
    p_cam.add_argument("--capacity", type=float, default=None,
                       help="transmission capacity C (default: sup phi)")
    p_cam.add_argument("--batch", type=_positive_int, default=32,
                       help="random probe inputs to sweep (default 32)")
    p_cam.add_argument("--seed", type=int, default=0)
    p_cam.add_argument("--chunk-size", type=_positive_int, default=1024)
    p_cam.add_argument("--workers", type=_workers_count, default=0,
                       help="worker processes (0 = in-process)")
    p_cam.add_argument("--dtype", choices=("float32", "float64"),
                       default="float64",
                       help="evaluation precision (float32 = fast path)")
    p_cam.add_argument("--backend", choices=_engine_backends(),
                       default="numpy",
                       help="evaluation engine backend: numpy (reference), "
                            "threaded (thread-pool tiling), or a "
                            "reduced-precision probe tier "
                            "(quantized-int8 / float16)")
    p_cam.add_argument("--threshold", type=float, default=None,
                       help="also report the fraction of scenarios "
                            "exceeding this error (the violation level "
                            "for adaptive stopping)")
    add_stopping(p_cam)
    add_spec_io(p_cam)
    add_obs(p_cam)

    p_chaos = sub.add_parser(
        "chaos",
        help="temporal chaos campaign over a deployed replica fleet",
    )
    p_chaos.add_argument("network", nargs="?", default=None,
                         help="path to a save_network() .npz archive")
    add_eps(p_chaos, required=False)
    p_chaos.add_argument(
        "--process", action="append", dest="processes",
        choices=("lifetime", "weibull", "poisson", "bursts", "blasts"),
        default=None,
        help="fault process (repeatable; default: lifetime — exponential "
             "component lifetimes at --rate)",
    )
    p_chaos.add_argument("--rate", type=_nonneg_float, default=0.02,
                         help="per-epoch fault rate: component hazard "
                              "(lifetime/weibull), arrivals per layer "
                              "(poisson), or event probability "
                              "(bursts/blasts) (default 0.02)")
    p_chaos.add_argument("--weibull-shape", type=_nonneg_float, default=2.0,
                         help="Weibull shape for --process weibull "
                              "(default 2.0, wear-out)")
    p_chaos.add_argument("--epochs", type=_positive_int, default=50,
                         help="mission length in epochs (default 50)")
    p_chaos.add_argument("--replicas", type=_positive_int, default=32,
                         help="fleet size (default 32)")
    p_chaos.add_argument(
        "--policy", choices=("none", "rejuvenate", "repair", "spare"),
        default="none",
        help="repair policy (default none; rejuvenate = periodic boosted "
             "restarts, repair = detector-triggered with latency, spare "
             "= warm-spare activation)",
    )
    p_chaos.add_argument("--period", type=_positive_int, default=10,
                         help="rejuvenation period in epochs (default 10)")
    p_chaos.add_argument("--latency", type=_nonneg_int, default=2,
                         help="repair latency in epochs for --policy "
                              "repair (default 2)")
    p_chaos.add_argument("--spares", type=_nonneg_int, default=4,
                         help="warm spares per 16-replica block for "
                              "--policy spare (zone-local pools; "
                              "default 4)")
    p_chaos.add_argument(
        "--detector", action="append", dest="detectors",
        choices=("threshold", "cusum", "certified"),
        default=None,
        help="error-drift detector (repeatable; default: threshold at "
             "the epsilon budget)",
    )
    p_chaos.add_argument(
        "--traffic", choices=("constant", "diurnal", "bursty"),
        default="constant",
        help="request-stream model weighting the SLO statistics "
             "(default constant)",
    )
    p_chaos.add_argument("--batch", type=_positive_int, default=32,
                         help="random probe inputs (default 32)")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--epochs-chunk", type=_positive_int, default=32,
                         help="epochs per streamed engine evaluation "
                              "(detection granularity; default 32)")
    p_chaos.add_argument("--workers", type=_workers_count, default=0,
                         help="worker processes over replica blocks "
                              "(0 = in-process)")
    p_chaos.add_argument("--dtype", choices=("float32", "float64"),
                         default="float64",
                         help="evaluation precision (float32 = fast path)")
    p_chaos.add_argument("--capacity", type=float, default=None,
                         help="transmission capacity C (default: sup phi)")
    p_chaos.add_argument("--telemetry", metavar="TRACE", default=None,
                         help="record the campaign's telemetry trace "
                              "(ground-truth fault labels included) and "
                              "persist it to TRACE.json + TRACE.npz")
    p_chaos.add_argument("--replay", metavar="TRACE", default=None,
                         help="skip simulation: replay a stored trace "
                              "against its spec's detectors and check "
                              "alarm parity with the live run")
    add_spec_io(p_chaos)
    add_obs(p_chaos)

    p_obs = sub.add_parser(
        "obs",
        help="inspect a stored observability record (trace + metrics)",
    )
    p_obs.add_argument(
        "record",
        help="path to a record saved by --obs RECORD (or "
             "ObsSpec(record=...)); '.json' may be omitted",
    )
    obs_mode = p_obs.add_mutually_exclusive_group()
    obs_mode.add_argument(
        "--openmetrics", action="store_true",
        help="print the metrics as an OpenMetrics text exposition",
    )
    obs_mode.add_argument(
        "--jsonl", action="store_true",
        help="print the span/event stream as JSON lines (walk order)",
    )
    obs_mode.add_argument(
        "--profile", action="store_true",
        help="print the per-phase wall-time table (the --profile view "
             "rebuilt from the published metrics)",
    )

    p_aiops = sub.add_parser(
        "aiops",
        help="score AIOps tasks (detection / localization / RCA) over "
             "a stored telemetry trace",
    )
    p_aiops.add_argument("trace",
                         help="path to a trace saved by chaos --telemetry "
                              "(.json/.npz stem)")

    def add_endpoint(p):
        """--socket / --host / --port, shared by the service commands."""
        p.add_argument(
            "--socket", metavar="PATH", default=None,
            help="unix socket path (default: repro-service.sock)",
        )
        p.add_argument(
            "--host", default=None,
            help="loopback TCP host (with --port; default 127.0.0.1)",
        )
        p.add_argument(
            "--port", type=_positive_int, default=None,
            help="loopback TCP port (instead of --socket)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the resident campaign service (spec jobs over JSONL)",
    )
    add_endpoint(p_serve)
    p_serve.add_argument(
        "--spec", metavar="FILE", default=None,
        help="run from a stored ServiceSpec JSON (conflicts with the "
             "endpoint/limit flags)",
    )
    p_serve.add_argument(
        "--dump-spec", action="store_true",
        help="print the ServiceSpec JSON instead of serving",
    )
    p_serve.add_argument(
        "--max-inflight", type=_positive_int, default=None,
        help="engine evaluations running concurrently (default 2)",
    )
    p_serve.add_argument(
        "--queue-depth", type=_nonneg_int, default=None,
        help="admitted jobs waiting for a runner before shedding "
             "(default 64; 0 = unbounded)",
    )
    p_serve.add_argument(
        "--job-timeout", type=_bounded(
            float, 0, "job timeout must be > 0", exclusive=True,
        ), default=None, metavar="SECONDS",
        help="per-job evaluation timeout (default: none)",
    )
    p_serve.add_argument(
        "--results-dir", metavar="DIR", default=None,
        help="ArtifactStore root for the spec-hash result cache",
    )
    p_serve.add_argument(
        "--cache-entries", type=_nonneg_int, default=None,
        help="in-memory result-cache entries (default 256; 0 disables)",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a campaign/survival/chaos spec to a running service",
    )
    p_submit.add_argument(
        "spec", metavar="SPEC",
        help="path to a workload spec JSON (campaign/survival/chaos)",
    )
    add_endpoint(p_submit)
    p_submit.add_argument(
        "--stream", action="store_true",
        help="print per-chunk progress as the engines evaluate",
    )
    p_submit.add_argument(
        "--timeout", type=_bounded(
            float, 0, "timeout must be > 0", exclusive=True,
        ), default=None, metavar="SECONDS",
        help="override the service's job timeout for this submission",
    )
    p_submit.add_argument(
        "--json", action="store_true",
        help="print the full result payload as JSON instead of a summary",
    )

    p_down = sub.add_parser(
        "shutdown", help="stop a running campaign service"
    )
    add_endpoint(p_down)
    p_down.add_argument(
        "--no-drain", action="store_true",
        help="stop immediately instead of draining in-flight jobs",
    )
    return parser


def _cmd_run_all(args) -> int:
    from .analysis.reporting import write_experiments_md
    from .artifacts import ArtifactStore
    from .experiments import registry

    selected = registry.select(args.filters)
    bad_tokens = registry.unmatched(args.filters)
    if not selected or bad_tokens:
        what = (
            f"filter(s) match no experiment: {bad_tokens}"
            if bad_tokens
            else f"no experiment matches filter(s) {args.filters}"
        )
        print(
            f"{what}; known ids: {', '.join(registry.experiment_ids())}",
            file=sys.stderr,
        )
        return 2
    if args.list:
        for exp in selected:
            print(
                f"{exp.experiment_id:28s} {exp.runtime:6s} {exp.anchor}"
                f"  [{', '.join(exp.tags)}]"
            )
        return 0

    store = ArtifactStore(args.results_dir)
    outcomes = store.run_many(
        selected, force=args.force, n_workers=args.jobs, log=print
    )
    failed = [o.experiment_id for o in outcomes if not o.passed]
    n_cached = sum(1 for o in outcomes if o.cached)
    executed_s = sum(o.wall_time_s for o in outcomes if not o.cached)
    print(
        f"{len(outcomes)} experiments: {len(outcomes) - len(failed)} pass, "
        f"{len(failed)} fail, {n_cached} cached ({executed_s:.1f}s executed; "
        f"manifest: {store.manifest_path})"
    )
    if args.experiments_md != "-":
        path = write_experiments_md(
            registry.all_experiments(), store, args.experiments_md
        )
        print(f"report written to {path}")
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    from .analysis.reporting import write_experiments_md
    from .artifacts import ArtifactStore
    from .experiments import registry

    store = ArtifactStore(args.results_dir)
    experiments = registry.all_experiments()
    manifest = store.load_manifest()
    entries = manifest["entries"]
    n_stored = sum(1 for e in experiments if e.experiment_id in entries)
    path = write_experiments_md(experiments, store, args.output)
    print(
        f"report written to {path} ({n_stored}/{len(experiments)} "
        "experiments have stored artifacts)"
    )
    cache = manifest.get("cache", {})
    print(
        f"artifact cache: {int(cache.get('hits', 0))} hits, "
        f"{int(cache.get('misses', 0))} misses (lifetime)"
    )
    return 0


def _cmd_experiments(args) -> int:
    from .experiments import ALL_EXPERIMENTS

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    names = args.names or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    failed = []
    results = {}
    for name in names:
        result = ALL_EXPERIMENTS[name]()
        results[name] = result
        print(result.report())
        print()
        if not result.passed:
            failed.append(name)
    if args.markdown:
        from .analysis.reporting import write_markdown_report

        path = write_markdown_report(results, args.markdown)
        print(f"markdown report written to {path}")
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args) -> int:
    from .core.certification import certify
    from .network.serialization import load_network

    network = load_network(args.network)
    cert = certify(
        network,
        args.epsilon,
        args.epsilon_prime,
        mode=args.mode,
        capacity=args.capacity,
    )
    print(cert.summary())
    return 0


def _cmd_inspect(args) -> int:
    from .analysis.topology import topology_stats
    from .network.serialization import load_network

    network = load_network(args.network)
    print(network.summary())
    stats = topology_stats(network)
    print(f"  mean |weight|: {stats['mean_abs_weight']:.4g}")
    print(f"  DAG: {stats['is_dag']}, longest path: {stats['longest_path_len']} hops")
    return 0


def _stopping_spec_from_args(args):
    """A StoppingSpec when any adaptive flag was typed, else None —
    untyped flags keep the spec's (and old specs') defaults."""
    from . import specs

    opts = {}
    if args.target_ci is not None:
        opts["target_ci"] = args.target_ci
    if args.delta is not None:
        opts["delta"] = args.delta
    if args.stopping_method is not None:
        opts["method"] = args.stopping_method
    if args.min_scenarios is not None:
        opts["min_scenarios"] = args.min_scenarios
    if args.stratify is not None:
        opts["stratify"] = args.stratify
    if args.allocation is not None:
        opts["allocation"] = args.allocation
        # --allocation neyman/rare only makes sense stratified; saying
        # so implicitly beats rejecting the obvious intent.
        opts.setdefault("stratify", True)
    if not opts:
        return None
    return specs.StoppingSpec(**opts)


def _campaign_spec_from_args(args):
    """Lower the ``campaign`` argparse namespace to a CampaignSpec."""
    from . import specs

    if args.exhaustive is not None:
        ignored = [
            name
            for name, value in (
                ("--fault", args.fault),
                ("--value", args.value),
                ("--n-scenarios", args.n_scenarios),
            )
            if value is not None
        ]
        if ignored:
            raise ValueError(
                f"{', '.join(ignored)} only appl"
                f"{'ies' if len(ignored) == 1 else 'y'} to Monte-Carlo "
                "campaigns (--distribution); the exhaustive sweep "
                "enumerates crash configurations"
            )
        sampler = specs.SamplerSpec(kind="exhaustive", n_fail=args.exhaustive)
        fault = specs.FaultSpec()
    elif args.p_fail is not None:
        sampler = specs.SamplerSpec(kind="bernoulli", p_fail=args.p_fail)
        kind = (args.fault or "crash").replace("-", "_")
        fault = specs.FaultSpec(
            kind=kind,
            value=(
                args.value
                if kind in ("byzantine", "stuck", "offset", "synapse_byzantine")
                else None
            ),
            sigma=args.sigma,
            p=args.p_transient,
        )
    elif args.distribution is not None:
        try:
            distribution = tuple(
                int(v) for v in args.distribution.split(",") if v.strip() != ""
            )
        except ValueError:
            raise ValueError(f"bad distribution {args.distribution!r}") from None
        sampler = specs.SamplerSpec(kind="fixed", distribution=distribution)
        kind = (args.fault or "crash").replace("-", "_")
        fault = specs.FaultSpec(
            kind=kind,
            # value=None is the capacity-saturating worst case for the
            # Byzantine kinds and the 1.0 default for stuck/offset.
            value=(
                args.value
                if kind in ("byzantine", "stuck", "offset", "synapse_byzantine")
                else None
            ),
            sigma=args.sigma,
            p=args.p_transient,
        )
    else:
        raise ValueError(
            "one of --distribution, --p-fail or --exhaustive is required "
            "(or run from a stored --spec FILE)"
        )
    n_scenarios = args.n_scenarios if args.n_scenarios is not None else 10_000
    return specs.CampaignSpec(
        network=specs.NetworkRef(path=args.network),
        sampler=sampler,
        fault=fault,
        n_scenarios=n_scenarios,
        batch=args.batch,
        seed=args.seed,
        capacity=args.capacity,
        threshold=args.threshold,
        stopping=_stopping_spec_from_args(args),
        engine=specs.EngineSpec(
            chunk_size=args.chunk_size,
            dtype=args.dtype,
            workers=args.workers,
            backend=args.backend,
        ),
    )


def _survival_spec_from_args(args):
    """Lower the ``survival`` argparse namespace to a SurvivalSpec."""
    from . import specs

    missing = [
        flag
        for flag, value in (
            ("--p-fail", args.p_fail),
            ("--epsilon", args.epsilon),
            ("--epsilon-prime", args.epsilon_prime),
        )
        if value is None
    ]
    if missing:
        raise ValueError(
            f"{', '.join(missing)} required (or run from a stored "
            "--spec FILE)"
        )
    stopping = _stopping_spec_from_args(args)
    method = args.method
    if method is None:
        # An adaptive flag only makes sense for the injection estimate.
        method = "monte_carlo" if stopping is not None else "certified"
    return specs.SurvivalSpec(
        network=specs.NetworkRef(path=args.network),
        p_fail=args.p_fail,
        epsilon=args.epsilon,
        epsilon_prime=args.epsilon_prime,
        mode=args.mode,
        capacity=args.capacity,
        method=method,
        n_trials=args.n_trials if args.n_trials is not None else 500,
        stopping=stopping,
    )


def _chaos_spec_from_args(args):
    """Lower the ``chaos`` argparse namespace to a ChaosSpec."""
    from . import specs

    if args.epsilon is None or args.epsilon_prime is None:
        raise ValueError(
            "--epsilon and --epsilon-prime required (or run from a "
            "stored --spec FILE)"
        )
    process_specs = {
        "lifetime": lambda: specs.ProcessSpec(kind="lifetime", rate=args.rate),
        "weibull": lambda: specs.ProcessSpec(
            kind="lifetime", rate=args.rate,
            shape=max(args.weibull_shape, 1e-9),
        ),
        "poisson": lambda: specs.ProcessSpec(kind="poisson", rate=args.rate),
        "bursts": lambda: specs.ProcessSpec(
            kind="bursts", rate=min(args.rate, 1.0)
        ),
        "blasts": lambda: specs.ProcessSpec(
            kind="blasts", rate=min(args.rate, 1.0)
        ),
    }
    policy_specs = {
        "none": lambda: specs.PolicySpec(),
        # tolerated=None derives the straggler budget from the
        # certificate at lowering (greedy_max_total_failures).
        "rejuvenate": lambda: specs.PolicySpec(
            kind="rejuvenate", period=args.period
        ),
        "repair": lambda: specs.PolicySpec(
            kind="repair", latency=args.latency
        ),
        "spare": lambda: specs.PolicySpec(kind="spare", spares=args.spares),
    }
    return specs.ChaosSpec(
        network=specs.NetworkRef(path=args.network),
        epsilon=args.epsilon,
        epsilon_prime=args.epsilon_prime,
        processes=tuple(
            process_specs[name]()
            for name in (args.processes or ["lifetime"])
        ),
        detectors=tuple(
            specs.DetectorSpec(kind=name)
            for name in (args.detectors or ["threshold"])
        ),
        policy=policy_specs[args.policy](),
        traffic=specs.TrafficSpec(kind=args.traffic),
        epochs=args.epochs,
        replicas=args.replicas,
        batch=args.batch,
        seed=args.seed,
        epochs_chunk=args.epochs_chunk,
        capacity=args.capacity,
        engine=specs.EngineSpec(dtype=args.dtype, workers=args.workers),
    )


#: Workload flags (all defaulting to None) that must not be combined
#: with ``--spec`` — a stored spec is edited, not partially overridden,
#: so an explicitly-typed flag silently losing to the file is a trap.
#: Adaptive flags: shared by the campaign and survival conflict rows.
_STOPPING_CONFLICTS = (
    ("--target-ci", "target_ci"),
    ("--delta", "delta"),
    ("--stopping-method", "stopping_method"),
    ("--min-scenarios", "min_scenarios"),
    ("--stratify", "stratify"),
    ("--allocation", "allocation"),
)

_SPEC_CONFLICTS = {
    "campaign": (
        ("--distribution", "distribution"),
        ("--exhaustive", "exhaustive"),
        ("--p-fail", "p_fail"),
        ("--fault", "fault"),
        ("--value", "value"),
        ("--n-scenarios", "n_scenarios"),
        ("--threshold", "threshold"),
        ("--capacity", "capacity"),
    )
    + _STOPPING_CONFLICTS,
    "survival": (
        ("--p-fail", "p_fail"),
        ("--epsilon", "epsilon"),
        ("--epsilon-prime", "epsilon_prime"),
        ("--capacity", "capacity"),
        ("--method", "method"),
        ("--n-trials", "n_trials"),
    )
    + _STOPPING_CONFLICTS,
    "chaos": (
        ("--epsilon", "epsilon"),
        ("--epsilon-prime", "epsilon_prime"),
        ("--process", "processes"),
        ("--detector", "detectors"),
        ("--capacity", "capacity"),
    ),
}


def _resolve_spec(args, build, spec_class):
    """The shared ``--spec FILE`` / argparse-builder shell.

    Loads the stored spec (type-checked against the command) or builds
    one from the flags; a positional network path overrides the stored
    spec's network reference, and any other explicit workload flag is
    rejected (edit the spec file instead of half-overriding it).
    """
    from . import specs

    if args.spec is not None:
        passed = [
            flag
            for flag, attr in _SPEC_CONFLICTS[spec_class.spec_tag]
            if getattr(args, attr, None) is not None
        ]
        if passed:
            raise ValueError(
                f"{', '.join(passed)} cannot be combined with --spec — "
                "the stored spec defines the workload (edit the file, "
                "or rebuild it with --dump-spec); only a positional "
                "network path overrides"
            )
        try:
            spec = specs.load_spec(args.spec)
        except OSError as exc:
            raise ValueError(f"cannot read spec file: {exc}") from None
        if not isinstance(spec, spec_class):
            raise ValueError(
                f"{args.spec} holds a {spec.spec_tag!r} spec; this "
                f"command runs {spec_class.spec_tag!r} specs"
            )
        if args.network is not None:
            spec = spec.replace(network=specs.NetworkRef(path=args.network))
        return spec
    if args.network is None:
        raise ValueError("network archive required (or pass --spec FILE)")
    return build(args)


def _observer_from_args(args):
    """A fresh :class:`~repro.obs.RunObserver` when ``--obs`` or
    ``--profile`` was typed, else None — the ``--profile`` table is a
    view over the observer's phase profile."""
    if args.obs is None and not args.profile:
        return None
    from .obs import RunObserver

    return RunObserver()


def _report_obs(obs, spec, args) -> None:
    """Print the ``--profile`` table and persist the ``--obs`` record
    next to the workload output."""
    if args.profile:
        print(obs.profile.report())
    if args.obs is not None:
        from .obs import save_run_record

        out = save_run_record(obs.record(spec.to_dict()), args.obs)
        print(f"obs record -> {out} (inspect with 'repro obs {out}')")


def _describe_sampler(spec) -> str:
    sampler = spec.sampler
    if sampler.kind == "fixed":
        return f"distribution {sampler.distribution}, fault {spec.fault.kind}"
    if sampler.kind == "bernoulli":
        return f"p_fail {sampler.p_fail}, fault {spec.fault.kind}"
    return f"mixed population ({len(sampler.components)} components)"


def _cmd_survival(args) -> int:
    from . import specs

    try:
        spec = _resolve_spec(args, _survival_spec_from_args, specs.SurvivalSpec)
        if args.dump_spec:
            print(spec.to_json(), end="")
            return 0
        obs = _observer_from_args(args)
        outcome = specs.run(spec, workers=args.workers or None, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec.method == "certified":
        print(
            "certified P[eps-guarantee survives | "
            f"p_fail={spec.p_fail}] >= {outcome:.6f}"
        )
    else:
        print(f"monte-carlo survival: {outcome!r}")
    _report_obs(obs, spec, args)
    return 0


def _cmd_campaign(args) -> int:
    from . import specs

    try:
        spec = _resolve_spec(args, _campaign_spec_from_args, specs.CampaignSpec)
        if args.dump_spec:
            print(spec.to_json(), end="")
            return 0
        # Domain errors (combinatorial-explosion guard, bad distribution
        # shape/counts) should read as CLI errors, not tracebacks.
        if spec.sampler.kind == "exhaustive":
            from .faults.campaign import count_crash_configurations

            total = count_crash_configurations(
                spec.network.resolve(), spec.sampler.n_fail
            )
            print(f"exhaustive sweep: {total} configurations of "
                  f"{spec.sampler.n_fail} crashes")
        else:
            print(f"monte-carlo campaign: {spec.n_scenarios} scenarios, "
                  f"{_describe_sampler(spec)}")
        obs = _observer_from_args(args)
        result = specs.run(spec, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.errors.size:
        print(
            f"  p50={result.quantile(0.5):.6g}  "
            f"p99={result.quantile(0.99):.6g}"
        )
    if spec.threshold is not None and result.errors.size:
        frac = result.fraction_exceeding(spec.threshold)
        print(f"  fraction exceeding {spec.threshold:g}: {frac:.4f}")
    rep = result.adaptive
    if rep is not None and hasattr(rep, "stopped"):
        word = "stopped" if rep.stopped else "hit the cap"
        print(
            f"  adaptive ({rep.method}): {word} after "
            f"{rep.n_scenarios}/{rep.n_cap} scenarios; violation rate "
            f"{rep.estimate:.6g} in [{rep.ci_low:.6g}, {rep.ci_high:.6g}] "
            f"at delta={rep.delta:g}"
        )
    elif rep is not None:
        print(
            f"  stratified ({rep.allocation}): violation rate "
            f"{rep.estimate:.6g} in [{rep.ci_low:.6g}, {rep.ci_high:.6g}], "
            f"n={rep.n_scenarios}, certified-zero mass "
            f"{rep.certified_mass:.6g} over shells {list(rep.certified_shells)}"
        )
    _report_obs(obs, spec, args)
    return 0


def _chaos_replay(path: str) -> int:
    """``chaos --replay TRACE``: re-serve a stored trace to the
    detectors its spec declares and report alarm parity with the live
    run — no network, no simulation."""
    import numpy as np

    from . import specs
    from .chaos.replay import replay_detectors
    from .chaos.telemetry import load_trace
    from .specs.dispatch import build_detector

    try:
        trace = load_trace(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace: {exc}") from None
    if trace.spec_payload is None:
        raise ValueError(
            "trace carries no spec payload (not produced by a spec "
            "run); rebuild detectors in Python via "
            "repro.chaos.replay_detectors instead"
        )
    spec = specs.spec_from_dict(trace.spec_payload)
    network = None
    if any(d.kind == "certified" for d in spec.detectors):
        network = spec.network.resolve()  # certified alarm needs Fep
    detectors = [build_detector(d, spec, network) for d in spec.detectors]
    print(
        f"replaying {trace.epochs} epochs x {trace.n_replicas} replicas "
        f"({len(detectors)} detectors, no re-simulation)"
    )
    grids = replay_detectors(trace, detectors)
    exact = True
    for name in sorted(grids):
        live = trace.alarms.get(name)
        if live is None:
            status = "no live grid stored"
            exact = False
        elif np.array_equal(grids[name], live):
            status = "matches the live run exactly"
        else:
            status = "DIFFERS from the live run"
            exact = False
        print(f"  {name}: {int(grids[name].sum())} alarm cells; {status}")
    print("replay parity:", "exact" if exact else "NOT exact")
    return 0 if exact else 1


def _cmd_chaos(args) -> int:
    from . import specs

    try:
        if args.replay is not None:
            return _chaos_replay(args.replay)
        spec = _resolve_spec(args, _chaos_spec_from_args, specs.ChaosSpec)
        if args.telemetry is not None and spec.telemetry is None:
            spec = spec.replace(telemetry=specs.TelemetrySpec())
        if args.dump_spec:
            print(spec.to_json(), end="")
            return 0
        print(
            f"chaos campaign: {spec.replicas} replicas x {spec.epochs} "
            f"epochs, processes {[p.kind for p in spec.processes]}, "
            f"policy {spec.policy.kind}"
        )
        obs = _observer_from_args(args)
        report = specs.run(spec, obs=obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.telemetry is not None:
        from .chaos.telemetry import save_trace

        t = spec.telemetry
        trace = report.trace.retained(
            retain_errors=t.retain_errors, retain_epochs=t.retain_epochs
        )
        json_path = save_trace(trace, args.telemetry)
        print(
            f"telemetry trace -> {json_path} "
            f"(+ {json_path.with_suffix('.npz').name})"
        )
    _report_obs(obs, spec, args)
    return 0


def _cmd_obs(args) -> int:
    from .obs import (
        MetricsRegistry,
        RunTrace,
        events_jsonl,
        load_run_record,
        profile_from_metrics,
        render_metrics_table,
        render_openmetrics,
        render_span_tree,
    )

    try:
        record = load_run_record(args.record)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = RunTrace.from_dict(record["trace"])
    metrics = MetricsRegistry.from_dict(record["metrics"])
    if args.openmetrics:
        print(render_openmetrics(metrics), end="")
    elif args.jsonl:
        print(events_jsonl(trace), end="")
    elif args.profile:
        print(profile_from_metrics(metrics).report())
    else:
        spec_payload = record.get("spec")
        if spec_payload:
            print(
                f"spec: {spec_payload.get('spec', '?')} "
                f"(version {spec_payload.get('spec_version', '?')})"
            )
        print(render_span_tree(trace))
        print(render_metrics_table(metrics))
    return 0


def _cmd_aiops(args) -> int:
    import json as _json

    from .chaos.aiops import scorecard
    from .chaos.telemetry import load_trace
    from .experiments.runner import jsonable

    try:
        trace = load_trace(args.trace)
        sheet = scorecard(trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps(jsonable(sheet), indent=2, sort_keys=True))
    return 0


def _make_client(args):
    """A ServiceClient for the parsed endpoint flags (submit/shutdown)."""
    from .service import DEFAULT_SOCKET, ServiceClient

    if args.port is not None:
        return ServiceClient(host=args.host or "127.0.0.1", port=args.port)
    if args.host is not None:
        raise ValueError("--host needs --port")
    return ServiceClient(args.socket or DEFAULT_SOCKET)


def _cmd_serve(args) -> int:
    import asyncio

    from .service import CampaignService
    from .specs import ServiceSpec, SpecError, load_spec

    try:
        if args.spec is not None:
            conflicts = [
                flag
                for flag, value in (
                    ("--socket", args.socket),
                    ("--host", args.host),
                    ("--port", args.port),
                    ("--max-inflight", args.max_inflight),
                    ("--queue-depth", args.queue_depth),
                    ("--job-timeout", args.job_timeout),
                    ("--results-dir", args.results_dir),
                    ("--cache-entries", args.cache_entries),
                )
                if value is not None
            ]
            if conflicts:
                raise SpecError(
                    f"--spec conflicts with {', '.join(conflicts)}; the "
                    "stored spec already fixes those"
                )
            spec = load_spec(args.spec)
            if not isinstance(spec, ServiceSpec):
                raise SpecError(
                    f"{args.spec} holds a {type(spec).__name__}, "
                    "serve needs a ServiceSpec"
                )
        else:
            kwargs = {}
            if args.port is not None:
                kwargs["host"] = args.host or "127.0.0.1"
                kwargs["port"] = args.port
            elif args.host is not None:
                raise SpecError("--host needs --port")
            elif args.socket is not None:
                kwargs["socket"] = args.socket
            for name in (
                "max_inflight", "queue_depth", "job_timeout",
                "results_dir", "cache_entries",
            ):
                value = getattr(args, name)
                if value is not None:
                    kwargs[name] = value
            spec = ServiceSpec(**kwargs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump_spec:
        print(spec.to_json(), end="")
        return 0
    service = CampaignService(spec)
    print(f"repro service listening on {service.endpoint}", file=sys.stderr)
    try:
        asyncio.run(service.serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_submit(args) -> int:
    import json as _json

    from .service import ServiceUnavailable, summarize_result
    from .specs import load_spec

    try:
        spec = load_spec(args.spec)
        client = _make_client(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_event(message):
        mtype = message.get("type")
        if mtype == "chunk" and args.stream:
            print(
                f"chunk {message.get('index')}: "
                f"{message.get('scenarios')} scenarios "
                f"({message.get('evaluated')} evaluated)",
                file=sys.stderr,
            )
        elif mtype == "adaptive" and args.stream:
            print(
                f"adaptive stop: n={message.get('n_scenarios')} "
                f"estimate={message.get('estimate'):.6g} "
                f"CI [{message.get('ci_low'):.6g}, "
                f"{message.get('ci_high'):.6g}]",
                file=sys.stderr,
            )

    try:
        terminal = client.submit(
            spec, stream=args.stream, timeout=args.timeout,
            on_event=on_event,
        )
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    ttype = terminal.get("type")
    if ttype == "result":
        payload = terminal["result"]
        if args.json:
            print(_json.dumps(payload, indent=2, sort_keys=True))
        else:
            provenance = (
                "cached" if terminal.get("cached")
                else "coalesced" if terminal.get("coalesced")
                else "evaluated"
            )
            print(f"[{provenance}] {summarize_result(payload)}")
        return 0
    if ttype == "rejected":
        print(f"error: job rejected: {terminal.get('reason')}",
              file=sys.stderr)
    elif ttype == "timeout":
        print(f"error: job timed out after {terminal.get('timeout_s')}s",
              file=sys.stderr)
    else:
        print(f"error: {terminal.get('kind')}: {terminal.get('detail')}",
              file=sys.stderr)
    return 1


def _cmd_shutdown(args) -> int:
    from .service import ServiceUnavailable

    try:
        client = _make_client(args)
        ack = client.shutdown(drain=not args.no_drain)
    except (ValueError, ServiceUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"service stopped (drained {ack.get('drained', 0)} jobs)")
    return 0


_COMMANDS = {
    "run-all": _cmd_run_all,
    "report": _cmd_report,
    "experiments": _cmd_experiments,
    "certify": _cmd_certify,
    "inspect": _cmd_inspect,
    "survival": _cmd_survival,
    "campaign": _cmd_campaign,
    "chaos": _cmd_chaos,
    "obs": _cmd_obs,
    "aiops": _cmd_aiops,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "shutdown": _cmd_shutdown,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
