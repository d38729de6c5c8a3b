"""Fig. 8a — HDD-cluster update throughput over MSR volume twins.

Paper shape (RS(6,4)): TSUE leads on every volume — up to 16.2x FO, 4x PL,
9.1x PLR, 3.6x PARIX; on HDDs the in-place methods collapse because random
I/O costs a seek, while TSUE's appends stay sequential.
"""

from repro.harness import fig8


def test_fig8a_hdd_throughput():
    text, rows = fig8.run_fig8a()
    print("\n" + text)

    for volume, vals in rows.items():
        assert max(vals, key=vals.get) == "TSUE", (volume, vals)
        # the HDD random/seek penalty makes the gap larger than on SSDs:
        # TSUE is at least 3x FO on every volume (paper: up to 16.2x)
        assert vals["TSUE"] > 3.0 * vals["FO"], (volume, vals)
        # PLR's inline recycling is crippling on disks
        assert vals["PLR"] < vals["PL"], (volume, vals)
