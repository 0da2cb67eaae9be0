"""Span tracing of qslice from outside the package.

``Tracer.install`` replaces every public function of the six qslice modules,
at every module binding and dispatch-table entry that names it, with a
wrapper that records a span (name, start, end, parent). Functions a module imported by name are wrapped
at the importing module's binding too, because that binding is what its
callers look up; ``qslice.search.effective_grover_step`` is the same wrapper
as ``qslice.oracles.effective_grover_step``. The lazily built parts of
``OracleCircuit`` (``circuit``, ``prep_circuit``, ``marked_set``) and its
``doubled`` method are wrapped on the class. ``uninstall`` puts the original
objects back, so untraced operations run the unmodified package.

A span's layer is the module that defines the function. Spans stay in
memory; ``save`` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "portfolio", "oracles", "comparators", "search", "sim")

#: Dense widths of the benchmark's dense workload, reported one by one.
DENSE_WIDTHS = (12, 14, 16, 18)

_ORACLE_MEMBERS = ("circuit", "prep_circuit", "marked_set", "doubled")

#: Every per-layer metric of a traced run: (name, unit, better). Counts and
#: times are per operation. ``bench.*`` comes from the harness: traced
#: operation wall time, the part of it no layer accounts for, the tracing
#: overhead measured as 1 - traced / untraced queries per second, and the
#: overhead computed as spans per operation times the cost of one span.
PER_LAYER = (
    ("oracles.effective_steps", "count/op", "lower"),
    ("oracles.effective_step_s", "s/op", "lower"),
    ("oracles.ns_per_index_amp_step", "ns", "lower"),
    ("oracles.marked_set_builds", "count/op", "lower"),
    ("oracles.marked_set_s", "s/op", "lower"),
    ("oracles.predicate_evals", "count/op", "lower"),
    ("oracles.builds", "count/op", "lower"),
    ("oracles.build_s", "s/op", "lower"),
    ("oracles.grover_operator_s", "s/op", "lower"),
    ("oracles.circuit_gates", "count/op", "lower"),
    ("comparators.builds", "count/op", "lower"),
    ("comparators.build_s", "s/op", "lower"),
    ("search.grover_runs", "count/op", "lower"),
    ("search.grover_iterations", "count/op", "lower"),
    ("search.grover_search_self_s", "s/op", "lower"),
    ("search.counting_calls", "count/op", "lower"),
    ("search.counting_s", "s/op", "lower"),
    ("search.oracle_calls_counting", "count/op", "lower"),
    ("search.oracle_calls_grover", "count/op", "lower"),
    ("search.enum_runs", "count/op", "lower"),
    ("search.enum_new_hit_ratio", "ratio", "higher"),
    ("search.disagreements", "count/op", "lower"),
    ("search.qes_rounds", "count/op", "lower"),
    ("search.qes_accept_ratio", "ratio", "higher"),
    ("search.gas_improvements", "count/op", "higher"),
    ("sim.apply_calls", "count/op", "lower"),
    ("sim.apply_s", "s/op", "lower"),
    ("sim.gates_applied", "count/op", "lower"),
    *((f"sim.ns_per_amp_gate.q{w}", "ns", "lower") for w in DENSE_WIDTHS),
    ("sim.bytes_moved_computed", "B/op", "lower"),
    ("sim.peak_state_bytes", "B", "lower"),
    ("sim.measure_s", "s/op", "lower"),
    ("portfolio.load_s", "s/op", "lower"),
    ("portfolio.rows_loaded", "count/op", "lower"),
    ("portfolio.sharpe_values_s", "s/op", "lower"),
    ("portfolio.select_self_s", "s/op", "lower"),
    ("cli.calls", "count/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    *((f"{layer}.layer_self_s", "s/op", "lower") for layer in LAYERS),
    ("bench.op_s", "s/op", "lower"),
    ("bench.unattributed_s", "s/op", "lower"),
    ("bench.tracing_overhead", "ratio", "lower"),
    ("bench.tracing_overhead_computed", "ratio", "lower"),
)

_AMP_BYTES = 16  # one complex128 amplitude


def _iterations(args, kwargs) -> int:
    return args[1] if len(args) > 1 else kwargs["iterations"]


def span_cost(calls: int = 50_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to an untraced one, best of ``repeats`` timings."""

    def noop(x):
        return x

    traced = Tracer()._wrap("cli.noop", noop)
    best = {}
    for fn in (noop, traced):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(i)
            best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - t0)
    return max(best[traced] - best[noop], 0.0) / calls


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self.width_s: dict[int, float] = {}
        self.width_amp_gates: dict[int, float] = {}
        self.peak_state_bytes = 0
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}
        self._observers = {
            "sim.apply": self._on_apply,
            "oracles.effective_grover_step": self._on_step,
            "oracles.OracleCircuit.marked_set": self._on_marked_set,
            "oracles.OracleCircuit.circuit": self._on_circuit,
            "search.grover_search": self._on_grover_search,
            "search.enumerate_solutions": self._on_enumerate,
            "search.qes": self._on_qes,
            "search.gas": self._on_gas,
            "portfolio.load_frontier": self._on_load,
        }

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        module_names = {m.__name__ for m in modules}

        def public(obj) -> bool:
            return (
                inspect.isfunction(obj)
                and obj.__module__ in module_names
                and not obj.__name__.startswith(("_", "<"))
            )

        def wrapped(value):
            return self._wrapper_for(value) if public(value) else value

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if public(obj) and not attr.startswith("_"):
                    self._replace(module, attr, self._wrapper_for(obj))
                elif isinstance(obj, dict):
                    # dispatch tables such as oracles._COMPARATORS hold functions too
                    table = {
                        k: tuple(map(wrapped, v)) if isinstance(v, tuple) else wrapped(v)
                        for k, v in obj.items()
                    }
                    if table != obj:
                        self._replace(module, attr, table)
        cls = package.oracles.OracleCircuit
        for attr in _ORACLE_MEMBERS:
            original = cls.__dict__[attr]
            name = f"oracles.OracleCircuit.{attr}"
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(name, original.func))
                replacement.__set_name__(cls, attr)
            else:
                replacement = self._wrap(name, original)
            self._replace(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrapper_for(self, fn):
        if fn not in self._wrappers:
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._wrappers[fn] = self._wrap(f"{layer}.{fn.__name__}", fn)
        return self._wrappers[fn]

    def _wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = self._observers.get(name)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[index] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, None, exc, tracer.end[index] - tracer.start[index])
                raise
            tracer.end[index] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result, None, tracer.end[index] - tracer.start[index])
            return result

        return traced

    # -- per-call counters --------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _on_apply(self, args, kwargs, result, exc, seconds) -> None:
        state, circuit = args[0], args[1]
        width = state.num_qubits
        gates = len(circuit.gates)
        self._add("sim.gates_applied", gates)
        self._add("sim.bytes_moved_computed", 2 * _AMP_BYTES * gates * (1 << width))
        self.width_s[width] = self.width_s.get(width, 0.0) + seconds
        self.width_amp_gates[width] = self.width_amp_gates.get(width, 0) + gates * (1 << width)
        self.peak_state_bytes = max(self.peak_state_bytes, _AMP_BYTES * (1 << width))

    def _on_step(self, args, kwargs, result, exc, seconds) -> None:
        self._add("oracles.index_amps_stepped", args[0].size)

    def _on_marked_set(self, args, kwargs, result, exc, seconds) -> None:
        self._add("oracles.predicate_evals", args[0].index_size)

    def _on_circuit(self, args, kwargs, result, exc, seconds) -> None:
        if result is not None:
            self._add("oracles.circuit_gates", len(result.gates))

    def _on_grover_search(self, args, kwargs, result, exc, seconds) -> None:
        self._add("search.grover_iterations", _iterations(args, kwargs))

    def _on_enumerate(self, args, kwargs, result, exc, seconds) -> None:
        if exc is not None:
            self._add("search.disagreements", isinstance(exc, RuntimeError))
            return
        self._add("search.enum_runs", result.grover_runs)
        self._add("search.enum_found", len(result.indices))

    def _on_qes(self, args, kwargs, result, exc, seconds) -> None:
        if result is not None:
            self._add("search.qes_rounds", len(result.rounds))
            self._add("search.qes_accepted", sum(r.accepted for r in result.rounds))

    def _on_gas(self, args, kwargs, result, exc, seconds) -> None:
        if result is not None:
            self._add("search.gas_improvements", sum(r.improvements for r in result.repetitions))

    def _on_load(self, args, kwargs, result, exc, seconds) -> None:
        if result is not None:
            self._add("portfolio.rows_loaded", len(result.records))

    # -- reduction ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self, ops: int, calls_reported: int) -> dict[str, float]:
        """Per-operation layer metrics over every span recorded so far.

        ``calls_reported`` is the sum of the oracle calls the traced
        operations reported; what Grover searches did not use went to counting.
        """
        s = self.spans()
        name, parent = s["name"], s["parent"]
        duration = s["end"] - s["start"]
        child = parent >= 0
        own = duration - np.bincount(parent[child], weights=duration[child], minlength=duration.size)
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        incl = np.bincount(name, weights=duration, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        ids = {n: i for i, n in enumerate(self.names)}

        def of(table, *names):
            return float(sum(table[ids[n]] for n in names if n in ids))

        # measurement outside measure_subregister, plus measure_subregister itself
        measuring = np.isin(name, [ids.get("sim.measure_subregister", -1), ids.get("sim.subregister_distribution", -1)])
        nested = np.zeros(name.size, dtype=bool)
        nested[child] = measuring[parent[child]]
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)
        layer_self = np.bincount(layer_of[name], weights=own, minlength=len(LAYERS))
        comparator_ids = [i for n, i in ids.items() if n.startswith("comparators.")]

        c = self.counts.get
        grover_calls = c("search.grover_iterations", 0)
        totals = {
            "oracles.effective_steps": of(calls, "oracles.effective_grover_step"),
            "oracles.effective_step_s": of(incl, "oracles.effective_grover_step"),
            "oracles.marked_set_builds": of(calls, "oracles.OracleCircuit.marked_set"),
            "oracles.marked_set_s": of(incl, "oracles.OracleCircuit.marked_set"),
            "oracles.predicate_evals": c("oracles.predicate_evals", 0),
            "oracles.builds": of(calls, "oracles.OracleCircuit.circuit"),
            "oracles.build_s": of(incl, "oracles.OracleCircuit.circuit"),
            "oracles.grover_operator_s": of(incl, "oracles.grover_operator"),
            "oracles.circuit_gates": c("oracles.circuit_gates", 0),
            "comparators.builds": float(calls[comparator_ids].sum()),
            "comparators.build_s": float(incl[comparator_ids].sum()),
            "search.grover_runs": of(calls, "search.grover_search"),
            "search.grover_iterations": grover_calls,
            "search.grover_search_self_s": of(self_s, "search.grover_search"),
            "search.counting_calls": of(calls, "search.quantum_counting"),
            "search.counting_s": of(incl, "search.quantum_counting"),
            "search.oracle_calls_counting": calls_reported - grover_calls,
            "search.oracle_calls_grover": grover_calls,
            "search.enum_runs": c("search.enum_runs", 0),
            "search.disagreements": c("search.disagreements", 0),
            "search.qes_rounds": c("search.qes_rounds", 0),
            "search.gas_improvements": c("search.gas_improvements", 0),
            "sim.apply_calls": of(calls, "sim.apply"),
            "sim.apply_s": of(incl, "sim.apply"),
            "sim.gates_applied": c("sim.gates_applied", 0),
            "sim.bytes_moved_computed": c("sim.bytes_moved_computed", 0),
            "sim.measure_s": float(duration[measuring & ~nested].sum()),
            "portfolio.load_s": of(incl, "portfolio.load_frontier"),
            "portfolio.rows_loaded": c("portfolio.rows_loaded", 0),
            "portfolio.sharpe_values_s": of(incl, "portfolio.sharpe_values"),
            "portfolio.select_self_s": of(self_s, "portfolio.slice_portfolios", "portfolio.max_sharpe"),
            "cli.calls": of(calls, "cli.main"),
            "cli.self_s": of(self_s, "cli.main"),
        }
        totals.update({f"{layer}.layer_self_s": float(layer_self[i]) for i, layer in enumerate(LAYERS)})
        out = {k: v / ops for k, v in totals.items()}

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        out["oracles.ns_per_index_amp_step"] = ratio(
            totals["oracles.effective_step_s"], c("oracles.index_amps_stepped", 0), 1e9
        )
        out["search.enum_new_hit_ratio"] = ratio(c("search.enum_found", 0), totals["search.enum_runs"])
        out["search.qes_accept_ratio"] = ratio(c("search.qes_accepted", 0), totals["search.qes_rounds"])
        for width in DENSE_WIDTHS:
            out[f"sim.ns_per_amp_gate.q{width}"] = ratio(
                self.width_s.get(width, 0.0), self.width_amp_gates.get(width, 0), 1e9
            )
        out["sim.peak_state_bytes"] = float(self.peak_state_bytes)
        return out
