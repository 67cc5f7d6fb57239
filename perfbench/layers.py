"""Per-layer metrics of one traced iteration, from the tracer's snapshots.

Times are summed over every process of the iteration (pool workers too), so
a module's ``self_s`` is busy time and can exceed the iteration's wall time
when two workers run at once.  ``*_s`` of a named function is its inclusive
time.  Counts are calls of the public entry point, cache hits included.
"""

import statistics

import tracer

MODULES = ("characters", "charsums", "cli", "cyclotomic", "ffield",
           "geometry", "identities", "polyring", "reports", "sieve")

CHUNK = "sieve.accumulate_chunk"
BOX_PASS = "reports.parallel_accumulator"

# counts that must repeat exactly between runs of the same code and inputs
EXACT = ("sieve.box_points", "sieve.distinct_values", "charsums.kernel_evals",
         "charsums.budget_spent", "polyring.mul.calls",
         "polyring.divrem.calls", "polyring.factor.calls",
         "characters.index_of_poly.calls", "geometry.dual_membership.calls")

# counts that depend on which chunks the pool hands to which worker, because
# each worker fills its own residue-table and factorization caches; on a
# workload with a pool they are reported but not compared
SCHEDULE_DEPENDENT = ("characters.residue_data.builds",
                      "polyring.divrem.calls")

# metric -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {}
for _m in MODULES:
    PER_LAYER[f"{_m}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_m}.calls"] = ("count", "lower")
PER_LAYER.update({
    "reports.build_instance_s": ("s", "lower"),
    "reports.box_pass_s": ("s", "lower"),
    "reports.chunk_s_p50": ("s", "lower"),
    "reports.chunk_s_max": ("s", "lower"),
    "reports.pool_wait_frac": ("ratio", "lower"),
    "reports.serialize_s": ("s", "lower"),
    "sieve.box_points": ("count", "lower"),
    "sieve.distinct_values": ("count", "lower"),
    "sieve.us_per_box_point": ("us", "lower"),
    "sieve.us_per_distinct_value": ("us", "lower"),
    "sieve.merge_s": ("s", "lower"),
    "sieve.terms_s": ("s", "lower"),
    "polyring.mul.calls": ("count", "lower"),
    "polyring.divrem.calls": ("count", "lower"),
    "polyring.factor.calls": ("count", "lower"),
    "polyring.factor.distinct_args": ("count", "lower"),
    "polyring.irreducibles_s": ("s", "lower"),
    "ffield.ext_mul.calls": ("count", "lower"),
    "ffield.reduce_poly.calls": ("count", "lower"),
    "ffield.field_tables_s": ("s", "lower"),
    "characters.residue_data_s": ("s", "lower"),
    "characters.residue_data.builds": ("count", "lower"),
    "characters.index_of_poly.calls": ("count", "lower"),
    "characters.reduction_reuse": ("ratio", "higher"),
    "charsums.char_sum.calls": ("count", "lower"),
    "charsums.kernel_evals": ("count", "lower"),
    "charsums.ns_per_kernel_eval": ("ns", "lower"),
    "charsums.contexts": ("count", "lower"),
    "charsums.context_setup_s": ("s", "lower"),
    "charsums.budget_spent": ("count", "lower"),
    "cyclotomic.from_exponent_counts.calls": ("count", "lower"),
    "cyclotomic.mul.calls": ("count", "lower"),
    "cyclotomic.abs_embed.calls": ("count", "lower"),
    "geometry.eval_form_at_polys.calls": ("count", "lower"),
    "geometry.dual_membership.calls": ("count", "lower"),
    "geometry.dual_membership_s": ("s", "lower"),
    "geometry.undecided_frac": ("ratio", "lower"),
    "geometry.exceptional_scan_s": ("s", "lower"),
    "identities.root_count_s": ("s", "lower"),
    "identities.gauss_magnitude_s": ("s", "lower"),
    "identities.count_mod_s": ("s", "lower"),
    "identities.completion_s": ("s", "lower"),
    "identities.unramified_expansion_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(invocations, overhead_frac):
    """invocations: (workers, snapshots) per invocation of the iteration."""
    total = tracer.merge(s for _, snaps in invocations for s in snaps)
    stats, sums, distinct = total["stats"], total["sums"], total["distinct"]

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def secs(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    out = {}
    for mod in MODULES:
        rows = [s for n, s in stats.items() if n.split(".")[0] == mod]
        out[f"{mod}.self_s"] = sum(r[2] for r in rows) / 1e9
        out[f"{mod}.calls"] = sum(r[0] for r in rows)

    chunks = [s for s in total["spans"] if s[0] == CHUNK]
    chunk_s = sorted((s[4] - s[3]) / 1e9 for s in chunks)
    busy = sum(chunk_s)
    box_points = sum(s[5]["stop"] - s[5]["start"] for s in chunks)
    capacity = sum(
        workers * tracer.merge(snaps)["stats"].get(BOX_PASS, (0, 0, 0))[1]
        for workers, snaps in invocations) / 1e9
    values = len(distinct.get("geometry.eval_form_at_polys", ()))
    reductions = calls("characters.ResidueData.index_of_poly")
    kernel_evals = sums.get("charsums.CharSumContext.char_sum", 0)
    memberships = calls("geometry.dual_membership")

    out.update({
        "reports.build_instance_s": secs("reports.build_instance"),
        "reports.box_pass_s": secs(BOX_PASS),
        "reports.chunk_s_p50": statistics.median(chunk_s) if chunk_s else 0.0,
        "reports.chunk_s_max": chunk_s[-1] if chunk_s else 0.0,
        "reports.pool_wait_frac": 1 - _ratio(busy, capacity) if capacity
        else 0.0,
        "reports.serialize_s": secs("reports.json_text", "reports.csv_text",
                                    "reports.write_artifact"),
        "sieve.box_points": box_points,
        "sieve.distinct_values": values,
        "sieve.us_per_box_point": 1e6 * _ratio(busy, box_points),
        "sieve.us_per_distinct_value": 1e6 * _ratio(busy, values),
        "sieve.merge_s": secs("sieve.merge_accumulators"),
        "sieve.terms_s": secs("sieve.sieve_terms",
                              "sieve.sieve_inequality_general"),
        "polyring.mul.calls": calls("polyring.mul"),
        "polyring.divrem.calls": calls("polyring.divrem"),
        "polyring.factor.calls": calls("polyring.factor"),
        "polyring.factor.distinct_args": len(
            distinct.get("polyring.factor", ())),
        "polyring.irreducibles_s": secs("polyring.irreducibles"),
        "ffield.ext_mul.calls": calls("ffield.ExtensionField.mul"),
        "ffield.reduce_poly.calls": calls("ffield.ExtensionField.reduce_poly"),
        "ffield.field_tables_s": secs("ffield.FieldTables.__init__"),
        "characters.residue_data_s": secs("characters.residue_data"),
        "characters.residue_data.builds": calls(
            "characters.ResidueData.__init__"),
        "characters.index_of_poly.calls": reductions,
        "characters.reduction_reuse": _ratio(
            len(distinct.get("characters.ResidueData.index_of_poly", ())),
            reductions),
        "charsums.char_sum.calls": calls("charsums.CharSumContext.char_sum"),
        "charsums.kernel_evals": kernel_evals,
        "charsums.ns_per_kernel_eval": 1e9 * _ratio(
            secs("charsums.CharSumContext.char_sum"), kernel_evals),
        "charsums.contexts": calls("charsums.CharSumContext.__init__"),
        "charsums.context_setup_s": secs("charsums.CharSumContext.__init__",
                                         "charsums.CharSumContext.g_values"),
        "charsums.budget_spent": sums.get("charsums.Budget.charge", 0),
        "cyclotomic.from_exponent_counts.calls": calls(
            "cyclotomic.CycRing.from_exponent_counts"),
        "cyclotomic.mul.calls": calls("cyclotomic.CycRing.mul"),
        "cyclotomic.abs_embed.calls": calls("cyclotomic.CycRing.abs_embed"),
        "geometry.eval_form_at_polys.calls": calls(
            "geometry.eval_form_at_polys"),
        "geometry.dual_membership.calls": memberships,
        "geometry.dual_membership_s": secs("geometry.dual_membership"),
        "geometry.undecided_frac": _ratio(
            sums.get("geometry.dual_membership", 0), memberships),
        "geometry.exceptional_scan_s": secs(
            "geometry.compute_exceptional_primes"),
        "identities.root_count_s": secs("identities.verify_root_count"),
        "identities.gauss_magnitude_s": secs(
            "identities.verify_gauss_magnitude"),
        "identities.count_mod_s": secs("identities.verify_count_mod"),
        "identities.completion_s": secs("identities.verify_completion"),
        "identities.unramified_expansion_s": secs(
            "identities.verify_unramified_expansion"),
        "trace.overhead_frac": overhead_frac,
    })
    return out


def chunks_per_worker(invocations):
    """Per invocation and worker pid: chunk count and busy seconds."""
    report = []
    for n, (_, snaps) in enumerate(invocations):
        per = {}
        for snap in snaps:
            for span in snap["spans"]:
                if span[0] == CHUNK:
                    got = per.setdefault(str(span[2]), [0, 0.0])
                    got[0] += 1
                    got[1] += (span[4] - span[3]) / 1e9
        if per:
            report.append({"invocation": n, "workers": per})
    return report
