"""In-memory span tracing for the benchmark's traced runs.

The tracer replaces public functions at the names the round loop looks them
up under (for instance ``baselines.local_train`` rather than
``client.local_train``), so the simulator itself is not edited. Each call
becomes a span: id, parent span id, layer name, the (strategy, seed, round)
it belongs to, start and end. Spans stay in memory and are written out
once the traced run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter

# (module attribute, attribute name, layer name). The layer name is where the
# function is defined; the module is where the caller looks it up.
TRACED = [
    ("baselines", "run_strategy", "baselines.run_strategy"),
    ("harness", "run_strategy", "baselines.run_strategy"),
    ("baselines", "select_clients", "server.select_clients"),
    ("baselines", "distribute", "server.distribute"),
    ("baselines", "local_train", "client.local_train"),
    ("baselines", "aggregate", "server.aggregate"),
    ("baselines", "loss", "tasks.loss"),
    ("baselines", "dense_loss", "tasks.dense_loss"),
    ("baselines", "refactor_svd", "lora.refactor_svd"),
    ("baselines", "reconstruct", "lora.reconstruct"),
    ("baselines", "generate_task", "tasks.generate_task"),
    ("baselines", "seeded_rng", "linalg.seeded_rng"),
    ("client", "seeded_rng", "linalg.seeded_rng"),
    ("server", "seeded_rng", "linalg.seeded_rng"),
    ("client", "tail_block_norm", "client.tail_block_norm"),
    ("server", "sparsity_score", "lora.sparsity_score"),
    ("server", "aggregate_pairs", "lora.aggregate_pairs"),
    ("lora", "svd", "linalg.svd"),
    ("Rng", "batch_indices", "linalg.batch_indices"),
    ("config", "load_config", "config.load_config"),
    ("cli", "load_config", "config.load_config"),
    ("tasks", "generate_task", "tasks.generate_task"),
    ("harness", "write_jsonl", "records.write_jsonl"),
    ("cli", "read_jsonl", "records.read_jsonl"),
    ("cli", "run_experiment", "harness.run_experiment"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_report", "cli.report"),
]

NO_KEY = (None, None, 0)


def strategy_tag(cfg) -> str:
    """The strategy name a run's records carry."""
    return f"homlora_r{cfg.homlora_rank}" if cfg.strategy == "homlora" else cfg.strategy


class Tracer:
    """Context manager that installs span-recording wrappers and restores
    the originals on exit.

    ``owners`` maps the first field of each TRACED entry to the module (or
    class) object that holds the attribute. Server aggregations and eval
    losses are kept in ``aggregates`` and ``dense_evals`` so the benchmark
    can check them after the run, outside the timed region.
    """

    def __init__(self, owners: dict):
        self._owners = owners
        self._ids = itertools.count(1)
        self._saved: list = []
        self._thread_spans: list[list] = []
        self._main = threading.get_ident()
        self._main_stack: list = []
        self.aggregates: list = []  # (key, state before, updates, state after)
        self.dense_evals: list = []  # (key, dense update)
        tracer = self

        class _State(threading.local):
            def __init__(self):
                self.key = NO_KEY
                self.stack = tracer._main_stack if threading.get_ident() == tracer._main else []
                self.spans = []
                tracer._thread_spans.append(self.spans)

        self._local = _State()

    def __enter__(self):
        for owner, attr, name in TRACED:
            target = self._owners[owner]
            fn = getattr(target, attr)
            self._saved.append((target, attr, fn))
            setattr(target, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        local = self._local
        ids = self._ids
        main_stack = self._main_stack
        on_call = getattr(self, "_call_" + name.replace(".", "_"), None)
        on_return = getattr(self, "_return_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            st = local
            if on_call is not None:
                on_call(st, args)
            stack = st.stack
            sid = next(ids)
            # a worker thread's first span was caused by the span open in
            # the main thread (harness.run_experiment)
            parent = stack[-1][0] if stack else (main_stack[-1][0] if main_stack else None)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                st.spans.append((sid, parent, name, st.key, t0, t1, frame[1]))
            if on_return is not None:
                on_return(st, args, kwargs, out)
            return out

        return traced

    # hooks that keep the (strategy, seed, round) key current
    @staticmethod
    def _call_baselines_run_strategy(st, args):
        st.key = (strategy_tag(args[0]), args[1], 0)

    @staticmethod
    def _return_baselines_run_strategy(st, args, kwargs, out):
        st.key = NO_KEY

    @staticmethod
    def _call_server_select_clients(st, args):
        st.key = (st.key[0], st.key[1], args[2])

    # hooks that keep what the output checks need
    def _return_server_aggregate(self, st, args, kwargs, out):
        self.aggregates.append((st.key, args[0], args[1], out))

    def _return_tasks_dense_loss(self, st, args, kwargs, out):
        self.dense_evals.append((st.key, args[0].array))

    @property
    def spans(self) -> list:
        return [s for spans in self._thread_spans for s in spans]

    def calls_by_strategy(self, name: str) -> dict:
        """Calls of one layer per strategy tag."""
        calls = defaultdict(int)
        for _, _, layer, key, *_ in self.spans:
            if layer == name:
                calls[key[0]] += 1
        return dict(calls)

    def layer_totals(self) -> dict:
        """Per layer name: calls, total busy ms, self ms, and per-call us."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_ms = defaultdict(float)
        per_call = defaultdict(list)
        for _, _, name, _, t0, t1, child in self.spans:
            calls[name] += 1
            busy[name] += (t1 - t0) * 1e3
            self_ms[name] += (t1 - t0 - child) * 1e3
            per_call[name].append((t1 - t0) * 1e6)
        return {
            name: {
                "calls": calls[name],
                "ms": busy[name],
                "self_ms": self_ms[name],
                "us_p50": statistics.median(per_call[name]),
            }
            for name in calls
        }

    def write(self, path) -> None:
        """One JSON line per (strategy, seed, round) key, its spans as
        [id, parent, name, start_us, end_us] relative to the first span."""
        spans = sorted(self.spans, key=lambda s: s[4])
        if not spans:
            return
        origin = spans[0][4]
        by_key = defaultdict(list)
        for sid, parent, name, key, t0, t1, _ in spans:
            by_key[key].append([sid, parent, name, round((t0 - origin) * 1e6, 1),
                                round((t1 - origin) * 1e6, 1)])
        with open(path, "w") as f:
            for (strategy, seed, rnd), rows in by_key.items():
                f.write(json.dumps({"strategy": strategy, "seed": seed, "round": rnd,
                                    "spans": rows}, separators=(",", ":")) + "\n")
