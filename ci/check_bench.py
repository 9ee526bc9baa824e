#!/usr/bin/env python3
"""CI gate over the serving-throughput bench record.

Usage: check_bench.py <produced.json> <committed_baseline.json>
           [--fleet <fleet.json>]

Fails (exit 1) when any of:
  * the bench reports batched-vs-sequential divergence
    (served_matches_sequential false, seg mismatches, or failed requests) —
    a correctness break, no tolerance;
  * the batched service throughput regressed by more than 2x against the
    committed baseline's record at the same scale;
  * the observability section reports tracing+metrics+profiling costing
    more than 5% throughput (obs_on_rps < 0.95 * obs_off_rps — both sides
    measured back-to-back in the produced run, so the check is self-relative
    and immune to runner-speed differences), or the baseline records an
    observability section the produced run lost;
  * the snapshot round trip breaks: the snapshot-loaded model answers
    differently from the model it was saved from (any segment mismatch —
    the format is bit-exact fp32), or the baseline records this check and
    the produced run lost it;
  * the hot-swap section (PR 9) breaks a zero-downtime invariant:
      - any future dropped or failed across the mid-stream SwapModel;
      - any answer diverging from the whole-model reference (the swap
        installs a snapshot clone with identical weights, so a divergence
        means a blended or torn generation);
      - the service's model generation did not advance to 1;
  * the overload section breaks one of the robustness layer's own
    invariants (these compare the produced run against ITSELF, so they are
    immune to runner-speed differences):
      - answered-request p99 must stay bounded by the request deadline in
        both ladder configurations (deadline enforcement is by construction:
        an answer whose budget expired is delivered deadline-missed);
      - the ladder-off run must actually shed (offered load is 3x the
        capacity measured in the same run — if nothing sheds, the overload
        section is not overloading and proves nothing);
      - the ladder-on shed rate must be strictly below the ladder-off shed
        rate at the same offered load (degrading beats dropping);
  * the fleet record (PR 10, --fleet, produced by bench_fleet_throughput)
    breaks a cross-process claim:
      - any fleet-served answer diverging from in-process inference (a
        single segment mismatch or >1e-5 ratio diff across every pass of
        the 2- and 4-worker sweeps), any failed request, or any unanswered
        future — correctness, no tolerance;
      - fleet(2 workers) falling below 1.0x the single-process service of
        the same run (self-relative; measured best-of-N on both sides,
        checked with the same 5% noise floor as the observability gate —
        the claim is "sharding across processes never costs throughput",
        and on a 1-core runner the two sides are genuinely tied);
    or the baseline records a fleet section the produced run lost.

The 2x throughput threshold is deliberately tolerant: the committed baseline
was recorded on a different box (1 core, -march=native) than the CI runner,
and the tiny-scale run sits well inside scheduler noise — this gate only
catches "the batched path fell off a cliff" regressions, not percent-level
drift. Tighten it only alongside a runner-recorded baseline. The p99-vs-
deadline check carries a small slack for the delivery hop between the
post-forward deadline check and the latency stamp.
"""

import json
import sys

REGRESSION_FACTOR = 2.0
# The p99-vs-deadline bound carries slack for (a) the delivery hop between
# the post-forward deadline check and the latency stamp and (b) the metric
# itself: p99 now reads from the registry's log-bucket histogram
# (48 buckets/decade), which reports the quantile rank's bucket UPPER edge —
# up to one bucket width (~4.9%) above the exact sample quantile.
DEADLINE_SLACK = 1.15
# Observability must be near-free: tracing every request + stage profiling
# may cost at most this fraction of the obs-off throughput of the same run.
OBS_OVERHEAD_LIMIT = 0.05
# Fleet (PR 10): 2 fleet workers must keep >= 1.0x the single-process
# service's throughput, self-relative in the fleet record's own run. The 5%
# floor is the same scheduler-noise allowance as the obs gate — on a
# 1-core runner both sides are compute-bound on the same core, so the
# honest expectation is a tie, not a 2x win.
FLEET_MIN_SPEEDUP = 1.0
FLEET_NOISE_FLOOR = 0.05


def fail(msg: str) -> None:
    print(f"::error::bench gate: {msg}")
    sys.exit(1)


def check_overload(produced: dict) -> None:
    deadline_ms = float(produced["overload_deadline_ms"])
    bound = deadline_ms * DEADLINE_SLACK
    for cfg in ("off", "on"):
        answered = int(produced[f"overload_policy_{cfg}_answered"])
        p99 = float(produced[f"overload_policy_{cfg}_p99_ms"])
        if answered > 0 and p99 > bound:
            fail(
                f"overload policy-{cfg} answered p99 {p99:.1f} ms exceeds "
                f"the {deadline_ms:.0f} ms deadline (x{DEADLINE_SLACK} slack)"
            )
    shed_off = float(produced["overload_policy_off_shed_rate"])
    shed_on = float(produced["overload_policy_on_shed_rate"])
    if shed_off <= 0.0:
        fail(
            "overload section did not overload: the ladder-off run shed "
            "nothing at 3x measured capacity (queue depth 32)"
        )
    if shed_on >= shed_off:
        fail(
            "degradation ladder did not reduce shedding: shed rate "
            f"{shed_on:.3f} with the ladder on vs {shed_off:.3f} off "
            "at the same offered load"
        )
    print(
        f"overload gate OK: shed rate {shed_off:.3f} (ladder off) -> "
        f"{shed_on:.3f} (ladder on), degraded rate "
        f"{float(produced['overload_policy_on_degraded_rate']):.3f}, "
        f"answered p99 {float(produced['overload_policy_off_p99_ms']):.1f} / "
        f"{float(produced['overload_policy_on_p99_ms']):.1f} ms vs "
        f"{deadline_ms:.0f} ms deadline"
    )


def check_observability(produced: dict) -> None:
    off = float(produced["obs_off_rps"])
    on = float(produced["obs_on_rps"])
    if off <= 0:
        fail(f"obs_off_rps is non-positive ({off})")
    if on < (1.0 - OBS_OVERHEAD_LIMIT) * off:
        fail(
            "observability overhead exceeds "
            f"{OBS_OVERHEAD_LIMIT:.0%}: {off:.1f} rps with obs off -> "
            f"{on:.1f} rps with tracing+profiling on "
            f"({1.0 - on / off:.1%} overhead, same run)"
        )
    print(
        f"observability gate OK: {off:.1f} rps off -> {on:.1f} rps on "
        f"({1.0 - on / off:+.1%} overhead, limit {OBS_OVERHEAD_LIMIT:.0%})"
    )


def check_snapshot(produced: dict) -> None:
    # The key keeps the name the committed baselines recorded it under.
    seg = int(produced["warmstart_seg_mismatches"])
    if seg != 0:
        fail(
            "snapshot-loaded model diverged from the original: "
            f"{seg} segment mismatches"
        )
    print("snapshot gate OK: loaded answers identical")


def check_swap(produced: dict) -> None:
    dropped = int(produced["swap_dropped_futures"])
    failed = int(produced.get("swap_failed_requests", 0))
    seg = int(produced.get("swap_seg_mismatches", 0))
    ratio = float(produced.get("swap_max_ratio_diff", 0.0))
    version = int(produced.get("swap_model_version", 0))
    if dropped != 0:
        fail(f"hot swap dropped {dropped} futures (must be zero)")
    if failed != 0:
        fail(f"hot swap failed {failed} requests (no faults injected)")
    if seg != 0 or ratio > 1e-5:
        fail(
            "hot swap blended generations: answers diverged from the "
            f"whole-model reference (seg_mismatches={seg}, "
            f"max_ratio_diff={ratio})"
        )
    if version != 1:
        fail(f"hot swap did not advance the model generation (got {version})")
    print(
        "hot-swap gate OK: zero dropped futures across the flip, answers "
        f"v0/v1 = {int(produced.get('swap_answers_old_gen', 0))}/"
        f"{int(produced.get('swap_answers_new_gen', 0))}, all whole-model"
    )


def check_fleet(fleet: dict) -> None:
    # Correctness first, zero tolerance: every fleet-served answer across
    # every pass of the 2- and 4-worker sweeps must match in-process
    # inference, nothing may fail, and nothing may go unanswered (the
    # router's every-future-resolves contract).
    seg = int(fleet.get("fleet_seg_mismatches", -1))
    ratio = float(fleet.get("fleet_max_ratio_diff", 1.0))
    failed = int(fleet.get("fleet_failed_requests", -1))
    unanswered = int(fleet.get("fleet_unanswered", -1))
    if (
        not fleet.get("fleet_matches_inprocess", False)
        or seg != 0
        or ratio > 1e-5
        or failed != 0
        or unanswered != 0
    ):
        fail(
            "fleet-served answers diverged from in-process inference "
            f"(seg_mismatches={seg}, max_ratio_diff={ratio}, "
            f"failed_requests={failed}, unanswered={unanswered})"
        )
    single = float(fleet["single_rps"])
    fleet2 = float(fleet["fleet2_rps"])
    if single <= 0:
        fail(f"single_rps is non-positive ({single})")
    if fleet2 < (FLEET_MIN_SPEEDUP - FLEET_NOISE_FLOOR) * single:
        fail(
            f"fleet(2 workers) fell below {FLEET_MIN_SPEEDUP}x the "
            f"single-process service: {fleet2:.1f} rps vs {single:.1f} rps "
            f"({fleet2 / single:.2f}x, floor "
            f"{FLEET_MIN_SPEEDUP - FLEET_NOISE_FLOOR:.2f}x, same run)"
        )
    print(
        f"fleet gate OK: single {single:.1f} rps, fleet(2) {fleet2:.1f} rps "
        f"({fleet2 / single:.2f}x, min {FLEET_MIN_SPEEDUP}x - "
        f"{FLEET_NOISE_FLOOR:.0%} noise), fleet(4) "
        f"{float(fleet.get('fleet4_rps', 0.0)):.1f} rps; answers "
        "bit-identical to in-process, zero failed, zero unanswered"
    )


def main() -> None:
    args = list(sys.argv[1:])
    fleet_path = None
    if "--fleet" in args:
        i = args.index("--fleet")
        if i + 1 >= len(args):
            fail("--fleet requires a path")
        fleet_path = args[i + 1]
        del args[i : i + 2]
    if len(args) != 2:
        fail(
            f"usage: {sys.argv[0]} <produced.json> <baseline.json> "
            "[--fleet <fleet.json>]"
        )
    with open(args[0]) as f:
        produced = json.load(f)
    with open(args[1]) as f:
        baseline_file = json.load(f)

    # Correctness first: served answers must match sequential inference.
    if not produced.get("served_matches_sequential", False):
        fail(
            "batched service diverged from sequential inference "
            f"(seg_mismatches={produced.get('seg_mismatches')}, "
            f"max_ratio_diff={produced.get('max_ratio_diff')}, "
            f"failed_requests={produced.get('failed_requests')})"
        )

    scale = produced.get("scale", "tiny")
    baseline = baseline_file.get("serve", {}).get(scale)
    if baseline is None:
        fail(f"baseline has no serve record for scale '{scale}'")

    key = "service_batched_forward_rps"
    got = float(produced[key])
    want = float(baseline[key])
    if got <= 0:
        fail(f"{key} is non-positive ({got})")
    if want / got > REGRESSION_FACTOR:
        fail(
            f"{key} regressed >{REGRESSION_FACTOR}x vs committed baseline: "
            f"{got:.1f} rps vs {want:.1f} rps"
        )

    if "obs_on_rps" in produced:
        check_observability(produced)
    elif "obs_on_rps" in baseline:
        # Losing the section silently would un-gate the observability
        # overhead claim (PR 7).
        fail("bench record is missing its observability section")

    if "warmstart_seg_mismatches" in produced:
        check_snapshot(produced)
    elif "warmstart_seg_mismatches" in baseline:
        # Losing the section silently would un-gate the snapshot fidelity
        # claim (PR 9).
        fail("bench record is missing its snapshot round-trip check")

    if "swap_dropped_futures" in produced:
        check_swap(produced)
    elif "swap_dropped_futures" in baseline:
        fail("bench record is missing its hot-swap section")

    if fleet_path is not None:
        with open(fleet_path) as f:
            check_fleet(json.load(f))
    elif baseline_file.get("fleet"):
        # Losing the fleet record silently would un-gate the cross-process
        # equivalence claim (PR 10).
        fail("no --fleet record produced, but the baseline commits one")

    if "overload_deadline_ms" in produced:
        check_overload(produced)
    elif "overload_deadline_ms" in baseline:
        # The baseline records an overload section, so the bench must still
        # produce one — losing the section silently would un-gate PR 6's
        # robustness invariants.
        fail("bench record is missing its overload section")

    print(
        f"bench gate OK: {key} {got:.1f} rps "
        f"(baseline {want:.1f} rps, tolerance {REGRESSION_FACTOR}x), "
        f"served answers match sequential inference"
    )


if __name__ == "__main__":
    main()
