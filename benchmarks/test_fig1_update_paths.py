"""Fig. 1 — per-method critical-path latency of a single 4 KiB update."""

from repro.harness import fig1


def test_fig1_update_path_latency():
    text, rows = fig1.run()
    print("\n" + text)

    warm = {m: v["warm update (us)"] for m, v in rows.items()}
    # replica-style sequential append gives TSUE the shortest path ...
    assert warm["TSUE"] == min(warm.values())
    # ... and the full in-place chain gives FO the longest warm path
    assert warm["FO"] == max(warm.values())
    # PARIX's cold (first-touch) update pays the extra serial network hop
    parix = rows["PARIX"]
    assert parix["cold update (us)"] > 1.3 * parix["warm update (us)"]
    # the write-after-read family sits between TSUE and FO
    for method in ("PL", "PLR", "CORD"):
        assert warm["TSUE"] < warm[method] < warm["FO"] * 1.01
