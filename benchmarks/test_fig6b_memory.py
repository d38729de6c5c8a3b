"""Fig. 6b — update performance and memory versus the log-unit quota.

Paper shape: IOPS saturates at ~4 units per pool while memory rises with the
quota; memory stays a small fraction of node RAM (0.15%-1.5% on 256 GB).
"""

from repro.harness import fig6


def test_fig6b_memory_sweep(quick_golden):
    text, rows = fig6.run_fig6b()
    print("\n" + text)
    quick_golden(text, "fig6b_quick.txt")

    quotas = sorted(rows, key=lambda r: int(r.split()[0]))
    iops = [rows[q]["IOPS"] for q in quotas]
    mem = [rows[q]["peak mem (MiB/node)"] for q in quotas]

    # throughput saturates: the largest quota is not much better than 4 units
    four = next(rows[q]["IOPS"] for q in quotas if q.startswith("4"))
    assert iops[-1] < 1.3 * four
    # memory grows monotonically with the quota (peak allocation)
    assert all(a <= b * 1.001 for a, b in zip(mem, mem[1:]))
    # and stays a small fraction of a 256 GB node
    assert all(rows[q]["mem % of node"] < 5.0 for q in quotas)
