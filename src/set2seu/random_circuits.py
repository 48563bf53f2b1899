"""Seeded random circuit generation for property tests and scale fixtures.

All randomness flows from the explicit seed; the same seed always
produces the identical circuit object.
"""

from __future__ import annotations

import random

from .netlist import GATE_KINDS, Circuit, build_circuit

_KINDS = ["AND", "AND", "OR", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUFF"]


def make_random_circuit(
    seed: int,
    n_pis: int = 4,
    n_ffs: int = 3,
    n_gates: int = 12,
    n_pos: int = 2,
    locality: int | None = None,
) -> Circuit:
    """Random acyclic gate-level circuit.

    Gates draw inputs from already-created nets (PIs, FF outputs, earlier
    gate outputs); `locality` restricts the draw to the most recent window,
    which keeps cones shallow in large circuits.
    """
    rng = random.Random(seed)
    names: list[str] = []
    pis: list[int] = []
    pool: list[int] = []

    def add_net(name: str) -> int:
        names.append(name)
        return len(names) - 1

    for i in range(n_pis):
        net = add_net(f"p{i}")
        pis.append(net)
        pool.append(net)
    q_nets = []
    for i in range(n_ffs):
        net = add_net(f"q{i}")
        q_nets.append(net)
        pool.append(net)

    gates: list[tuple[str, tuple[int, ...], int]] = []
    gate_outs: list[int] = []
    for i in range(n_gates):
        kind = rng.choice(_KINDS)
        unary = GATE_KINDS[kind][0] == "BUFF"
        arity = 1 if unary else rng.choice([2, 2, 2, 3])
        window = pool if locality is None else pool[-locality:]
        ins = tuple(rng.choice(window) for _ in range(arity))
        if not unary and len(set(ins)) < 2:
            extra = rng.choice(window)
            ins = ins + (extra,)
        out = add_net(f"n{i}")
        gates.append((kind, ins, out))
        gate_outs.append(out)
        pool.append(out)

    ffs: list[tuple[str, int, int]] = []
    for i in range(n_ffs):
        # bias D pins toward gate outputs; a direct PI wire now and then
        # exercises the degenerate-cone paths
        direct = pis + [q for q in q_nets if q != q_nets[i]]
        if gate_outs and (not direct or rng.random() < 0.9):
            d = rng.choice(gate_outs)
        else:
            d = rng.choice(direct)
        ffs.append((f"q{i}", d, q_nets[i]))

    pos = []
    candidates = gate_outs + q_nets
    rng.shuffle(candidates)
    for net in candidates[: max(n_pos, 0)]:
        pos.append(net)

    return build_circuit(names, gates, ffs, pis, pos)


def corpus(base_seed: int, count: int, **kwargs) -> list[Circuit]:
    """Deterministic list of varied random circuits."""
    rng = random.Random(base_seed)
    out = []
    for i in range(count):
        params = dict(
            n_pis=rng.randint(2, kwargs.get("max_pis", 6)),
            n_ffs=rng.randint(1, kwargs.get("max_ffs", 8)),
            n_gates=rng.randint(3, kwargs.get("max_gates", 40)),
            n_pos=rng.randint(0, 3),
        )
        out.append(make_random_circuit(base_seed * 1_000_003 + i, **params))
    return out
