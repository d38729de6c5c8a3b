"""Table 1 — storage workload and network traffic (Ten-Cloud, RS(6,4)).

Paper shape: TSUE has the fewest read/write operations and by far the
fewest overwrites (8% of FO's count); its network traffic is in CoRD's
neighbourhood (CoRD is the traffic-optimized design) and well below the
PL/FO/PLR tier; TSUE's erase count is the lowest, giving the 2.5x-13x
lifespan advantage.
"""

from repro.harness import table1


def test_table1_workload():
    text, data = table1.run()
    print("\n" + text)
    rows = data["rows"]

    ops = {m: rows[m]["READ/WRITE Num."] for m in rows}
    ow = {m: rows[m]["OVERWRITE Num."] for m in rows}
    net = {m: rows[m]["NETWORK TRAFFIC (GB)"] for m in rows}
    erases = {m: rows[m]["ERASES"] for m in rows}

    # TSUE: fewest overwrites, by a wide margin (paper: 8% of FO)
    assert ow["TSUE"] == min(ow.values())
    assert ow["TSUE"] < 0.4 * ow["FO"]
    # PLR's reserved-space appends push its overwrite count past FO's
    assert ow["PLR"] > 0.5 * ow["FO"]
    # TSUE's op count is in CoRD's neighbourhood and far below PL's
    assert ops["TSUE"] < 0.5 * ops["PL"]
    assert ops["TSUE"] < 1.25 * ops["CORD"]
    # network: CoRD and TSUE form the low tier; PARIX is the highest
    assert net["TSUE"] < net["FO"]
    assert net["CORD"] <= net["TSUE"] * 1.4
    assert net["PARIX"] == max(net.values())
    # lifespan: TSUE is in the lowest-erase tier (within 10% of the best —
    # CoRD can tie at small scale) and strictly below the in-place methods;
    # the worst method erases >= 2.5x more (paper: 2.5x-13x)
    assert erases["TSUE"] <= 1.10 * min(erases.values())
    for method in ("FO", "PL", "PLR", "PARIX"):
        assert erases["TSUE"] < erases[method]
    worst = max(erases.values())
    assert worst / erases["TSUE"] >= 2.5
