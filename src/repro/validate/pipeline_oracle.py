"""Gate-at-a-time reference for pipeline cutting.

The production leveler and register counter in
:mod:`repro.synthesis.pipeline` work on level-sorted arrays; these are
the plain greedy and the fanout-dict counter they replaced, kept as the
oracle of the ``pipeline-leveling`` differential check and the unit
tests.  Both take and return name-keyed dicts.
"""

from __future__ import annotations

from repro.synthesis.netlist import Netlist


def greedy_stages(netlist: Netlist, delays: dict[str, float],
                  budget: float) -> tuple[int, dict[str, int]] | None:
    """Greedy ASAP leveling, one gate at a time in topological order.

    Returns ``(n_stages, stage_of_gate)``; ``None`` if some single gate
    exceeds the budget.
    """
    net_state: dict[str, tuple[int, float]] = {
        net: (0, 0.0) for net in netlist.primary_inputs}
    stage_of: dict[str, int] = {}
    max_stage = 0
    for gate in netlist.topological_order():
        d = delays[gate.name]
        if d > budget:
            return None
        s = 0
        t_in = 0.0
        for net in gate.inputs:
            ns, nt = net_state[net]
            if ns > s:
                s, t_in = ns, nt
            elif ns == s:
                t_in = max(t_in, nt)
        t_out = t_in + d
        if t_out > budget:
            s += 1
            t_out = d
        stage_of[gate.name] = s
        net_state[gate.output] = (s, t_out)
        if s > max_stage:
            max_stage = s
    return max_stage + 1, stage_of


def single_stage_times(netlist: Netlist,
                       delays: dict[str, float]) -> list[float]:
    """Each gate's output time when the whole netlist is one stage.

    These are the greedy's ``t_out`` values at an unbounded budget; with
    nonnegative delays, leveling at a budget equal to one of them puts
    that gate exactly on the ``t_out > budget`` boundary (a tie).
    """
    t_of: dict[str, float] = {net: 0.0 for net in netlist.primary_inputs}
    times = []
    for gate in netlist.topological_order():
        t_in = 0.0
        for net in gate.inputs:
            t_in = max(t_in, t_of[net])
        t_of[gate.output] = t_in + delays[gate.name]
        times.append(t_of[gate.output])
    return times


def count_registers_dict(netlist: Netlist, stage_of: dict[str, int],
                         n_stages: int) -> int:
    """Pipeline flops from the fanout map: one per net per crossed stage
    boundary, plus one output register per primary-output net."""
    fanout = netlist.fanout_map()
    po_set = set(netlist.primary_outputs)
    total = 0
    for net, sinks in fanout.items():
        driver = netlist.driver_of(net)
        s_driver = stage_of[driver.name] if driver is not None else 0
        s_last = s_driver
        for sink, _pin in sinks:
            s_last = max(s_last, stage_of[sink.name])
        if net in po_set:
            s_last = max(s_last, n_stages - 1)
            total += 1                     # final output register
        total += s_last - s_driver
    return total
