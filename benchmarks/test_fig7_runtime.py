"""Figure 7 + Table 9 — SNS runtime vs synthesizer runtime."""

from repro.experiments import PLATFORMS, format_table, runtime_comparison

from conftest import run_once


def test_fig7_runtime_comparison(benchmark, design_records, sns_on_a):
    report = run_once(benchmark, lambda: runtime_comparison(
        sns_on_a, design_records, synth_effort="high"))

    ordered = sorted(report.rows, key=lambda r: r.gate_count)
    picks = [ordered[0], ordered[len(ordered) // 2], ordered[-1]]
    # Two significant figures: a 2.7x loss prints as 0.37x, not 0x.
    rows = [[r.design, f"{r.gate_count:.0f}", f"{r.synth_seconds * 1e3:.1f}",
             f"{r.sns_seconds * 1e3:.1f}", f"{float(f'{r.speedup:.2g}'):g}x"]
            for r in picks]
    print("\n" + format_table(
        ["design", "gates", "synth ms", "SNS ms", "speedup"],
        rows, title="Figure 7: SNS vs reference synthesizer (highlights)"))
    print(f"designs measured: {len(report.rows)}")
    print(f"average speedup: {report.average_speedup:.1f}x (paper: 760x)")
    print(f"max speedup: {report.max_speedup:.1f}x "
          "(paper: up to three orders of magnitude)")
    big_half = ordered[len(ordered) // 2:]
    big_avg = sum(r.speedup for r in big_half) / len(big_half)
    print(f"average speedup on the larger half: {big_avg:.1f}x")

    # Shape assertions.  Both sides of the ratio are Python estimators
    # here (the paper's DC runs take hours), so the magnitude compresses;
    # what must survive is the *shape*: the speedup grows with design
    # size, and large designs see a decisive win.
    assert report.speedup_grows_with_size()
    assert big_avg > 1.0
    assert ordered[-1].speedup > 3


def test_table9_desktop_platform(benchmark, design_records, sns_on_a):
    """The desktop-vs-server variant: SNS slowed by the platform gap."""
    # Table 9's platforms: the desktop has ~1/6 the cores of the server;
    # SNS inference is lightly threaded so the penalty is modest (~1.3x),
    # matching the paper's 760x -> 574x drop.
    factor = 760.0 / 574.0
    biggest = sorted(design_records, key=lambda r: r.graph.num_nodes)[-6:]
    server = run_once(benchmark, lambda: runtime_comparison(
        sns_on_a, biggest, synth_effort="high"))
    desktop = runtime_comparison(sns_on_a, biggest, synth_effort="high",
                                 desktop_factor=factor)

    print("\nTable 9 platforms:")
    for name, spec in PLATFORMS.items():
        print(f"  {name}: {spec['processor']}; {spec['memory']}; {spec['os']}")
    print(f"server-SNS average speedup: {server.average_speedup:.1f}x; "
          f"desktop-SNS: {desktop.average_speedup:.1f}x "
          "(paper: 760x -> 574x)")

    # The desktop penalty shrinks but does not erase the win (the paper's
    # observation), measured on the large designs where SNS wins.
    assert desktop.average_speedup < server.average_speedup
    assert desktop.average_speedup > 0.5 * server.average_speedup
