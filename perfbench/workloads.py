"""The two workloads: train and eval-grid.

Each is a closed loop with one client in this process. A workload has a
set-up (generate and write its inputs, build the bank, init and save the
checkpoint where it needs one, warm up) and a unit of work: one `cli train`
call or one `cli eval` call. Every unit's outputs are checked; a unit that
raises, exits nonzero or gives a wrong output counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import vesselcast.bank as vc_bank
import vesselcast.checkpoint as vc_ckpt
import vesselcast.cli as vc_cli
import vesselcast.data as vc_data
from vesselcast.config import TrainConfig, load_train_config
from vesselcast.data import DENSITY_LEVELS, WaterwayConfig
from vesselcast.engine import reset_roi_diagnostics, roi_diagnostics
from vesselcast.engine.rng import Rng
from vesselcast.metrics import min_ade_fde_at_k
from vesselcast.model import Model

from tracing import Tracer

BANK_KMAX = 16
CKPT_SEED = 0  # eval uses this fixed-seed untrained init
SETUP_REPEATS = 5
TRACE_PAIRS = 3  # untraced/traced pairs in a traced run

TRAIN_VESSELS = 16  # one batch of the default size
TRAIN_EPOCHS = 2

# a small scenario whose density labels still cover all three tiers, and
# whose largest tier is big enough that the highest rho darkens a vessel
EVAL_SCENARIO = dict(vessel_count=12, density_radius=0.12, density_low_max=1, density_med_max=3)
EVAL_RHOS = (0.0, 0.1, 0.2, 0.3)
EVAL_GRID = ["--dt", "12", "--rho", ",".join(map(str, EVAL_RHOS)), "--seeds", "2"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mean_min_ade(answered) -> float:
    """Positional best-of-K ADE over the full horizon, averaged over (ais, sample) pairs."""
    return float(np.mean([min_ade_fde_at_k(ais, s.fut_ais)[0] for ais, s in answered]))


def run_cli(argv: list[str]) -> tuple[int, float]:
    """In-process `vesselcast` call: (exit code, wall seconds). A raise is exit 1."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = vc_cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start


class Workload:
    """Set-up, checks and the traced pass shared by all workloads."""

    name = ""
    outputs: tuple[str, ...] = ()  # files whose bytes must repeat call after call

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.cfg = TrainConfig()
        self.attempted = 0
        self.failed = 0
        self.inputs: dict = {}  # recorded with the result
        self.info: dict = {}
        self.digests: dict[str, dict[str, str]] = {}  # first digest of each checked file

    def path(self, name: str) -> Path:
        return self.dir / name

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.name} {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def same_bytes(self, what: str, names) -> list[str]:
        """Files of one kind must be byte-identical every time they are written."""
        digests = {name: digest(self.path(name)) for name in names}
        first = self.digests.setdefault(what, digests)
        return [f"{n} differs from its first {what}" for n in names if digests[n] != first[n]]

    def write_inputs(self, samples, checkpoint: bool) -> None:
        vc_data.write_dataset(self.path("data.jsonl"), samples)
        bank = vc_bank.bank_from_samples(samples, k_max=BANK_KMAX, seed=0)
        vc_bank.save_bank(self.path("bank.json"), bank)
        if checkpoint:
            vc_ckpt.save_model(self.path("ckpt.bin"), Model(self.cfg, seed=CKPT_SEED))

    def warm_up(self, sample) -> None:
        """One request outside any timed path, so lazy caches fill before timing."""
        Model(self.cfg, seed=CKPT_SEED).predict(sample, rng=Rng(0))

    def timed_setup(self) -> float:
        start = time.perf_counter()
        self.setup(warm=True)
        return time.perf_counter() - start

    def measure(self, seconds: float) -> dict[str, float]:
        """Untraced run: repeated set-ups, then units until `seconds` have passed."""
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(self.timed_setup())
            self.record("set-up", self.same_bytes("set-up", self.setup_files))
        self.checked(self.unit())  # the first call fills the allocator and caches; untimed
        walls = []
        rates = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            out = self.unit()
            if self.checked(out):
                walls.append(out["wall"])
                rates.append(out["samples"] / out["wall"])
        if not walls:
            raise RuntimeError(f"every {self.name} call failed")
        return {
            "setup_s": statistics.median(setups),
            "samples_per_s": statistics.median(rates),
            "op_p50_ms": 1000.0 * statistics.median(walls),
            "ais_min_ade": self.quality(),
        }

    def checked(self, out: dict) -> bool:
        problems = self.check(out)
        if not problems:
            problems = self.same_bytes("call", self.outputs)
        return self.record("call", problems)

    def timed_pass(self) -> tuple[float, dict]:
        start = time.perf_counter()
        self.setup(warm=False)
        out = self.unit()
        return time.perf_counter() - start, out

    def trace(self) -> dict[str, float]:
        """Fixed work, warmed, then run untraced and traced in pairs.

        Per-layer metrics are the median over the traced passes; the counts
        are the same in every pass. Outputs are checked with tracing off.
        """
        self.setup(warm=True)
        self.checked(self.unit())
        passes = []
        for _ in range(TRACE_PAIRS):
            untraced, out = self.timed_pass()
            self.checked(out)
            tracer = Tracer()
            reset_roi_diagnostics()
            tracer.install()
            try:
                traced, out = self.timed_pass()
            finally:
                tracer.uninstall()
            self.checked(out)
            passes.append(tracer.metrics(traced, untraced, roi_diagnostics()["degenerate_roi"]))
        return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


class Train(Workload):
    """`cli train` with the default config for a few epochs."""

    name = "train"
    outputs = ("trained.bin", "curve.csv")
    setup_files = ("data.jsonl", "bank.json", "train.cfg")

    def setup(self, warm: bool) -> None:
        samples = vc_data.generate_scenario(WaterwayConfig(vessel_count=TRAIN_VESSELS), seed=self.seed)
        self.write_inputs(samples, checkpoint=False)
        self.path("train.cfg").write_text(f"epochs = {TRAIN_EPOCHS}\n", encoding="utf-8")
        if warm:
            self.warm_up(samples[0])
        self.samples = samples
        self.inputs = {"vessels": len(samples), "epochs": TRAIN_EPOCHS, "dark_share": 0.0,
                       "density_tiers": dict(Counter(s.density for s in samples))}

    def unit(self) -> dict:
        code, wall = run_cli(["train", "--data", str(self.path("data.jsonl")),
                              "--bank", str(self.path("bank.json")),
                              "--config", str(self.path("train.cfg")),
                              "--out", str(self.path("trained.bin")),
                              "--curve", str(self.path("curve.csv")), "--quiet"])
        return {"code": code, "wall": wall, "samples": TRAIN_EPOCHS * len(self.samples)}

    def check(self, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"train exited {out['code']}"]
        with open(self.path("curve.csv"), encoding="utf-8") as fh:
            loss = float(list(csv.DictReader(fh))[-1]["total"])
        self.info["train_loss"] = loss
        if not math.isfinite(loss):
            return [f"last-epoch loss is {loss}"]
        try:
            self.trained = vc_ckpt.load_model(self.path("trained.bin"),
                                              load_train_config(self.path("train.cfg")))
        except vc_ckpt.CheckpointError as exc:
            return [f"checkpoint does not reload: {exc}"]
        return []

    def quality(self) -> float:
        """Best-of-K ADE of the trained checkpoint on its own training vessels.

        Every `predict` made for it is checked and counted as an operation.
        """
        bank = vc_bank.load_bank(self.path("bank.json"))
        shape = (self.cfg.modes, self.cfg.t_fut, 2)
        answered = []
        for sample in self.samples:
            what = f"predict {sample.vessel_id}"
            try:
                preds = self.trained.predict(sample, rng=Rng(self.seed).child(sample.vessel_id), bank=bank)
            except Exception as exc:
                self.record(what, [f"raised {type(exc).__name__}: {exc}"])
                continue
            problems = [f"{name} is not a finite {shape} array" for name in ("ais", "cctv")
                        if getattr(preds, name).shape != shape
                        or not np.all(np.isfinite(getattr(preds, name)))]
            if self.record(what, problems):
                answered.append((preds.ais, sample))
        return mean_min_ade(answered)


class EvalGrid(Workload):
    """`cli eval` over one horizon, four missing rates and two seeds."""

    name = "eval-grid"
    outputs = ("report.csv",)
    setup_files = ("data.jsonl", "bank.json", "ckpt.bin")

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        # chosen once, untimed, so that set-up time does not depend on how
        # many scenarios the seed had to draw
        self.scenario_seed = self.pick_scenario_seed()

    def pick_scenario_seed(self) -> int:
        """The first seed derived from the workload seed whose scenario populates
        every tier and whose grid darkens at least one vessel."""
        stream = Rng(self.seed).child("eval-grid")
        for attempt in range(100):
            seed = stream.child(attempt).seed
            samples = vc_data.generate_scenario(WaterwayConfig(**EVAL_SCENARIO), seed=seed)
            tiers = Counter(s.density for s in samples)
            if set(tiers) == set(DENSITY_LEVELS) and math.floor(max(EVAL_RHOS) * max(tiers.values())):
                return seed
        raise RuntimeError(f"no scenario with every density tier and a dark vessel from seed {self.seed}")

    def setup(self, warm: bool) -> None:
        samples = vc_data.generate_scenario(WaterwayConfig(**EVAL_SCENARIO), seed=self.scenario_seed)
        self.write_inputs(samples, checkpoint=True)
        if warm:
            self.warm_up(samples[0])
        tiers = Counter(s.density for s in samples)
        # evaluate darkens floor(rho * n) vessels of each tier, as apply_dark_vessels does
        dark = [sum(math.floor(rho * n) for n in tiers.values()) for rho in EVAL_RHOS]
        self.inputs = {"vessels": len(samples), "scenario_seed": self.scenario_seed,
                       "dark_share": sum(dark) / (len(dark) * len(samples)),
                       "density_tiers": dict(tiers)}

    def unit(self) -> dict:
        code, wall = run_cli(["eval", "--data", str(self.path("data.jsonl")),
                              "--ckpt", str(self.path("ckpt.bin")),
                              "--bank", str(self.path("bank.json")),
                              "--report", str(self.path("report.csv")), *EVAL_GRID])
        return {"code": code, "wall": wall}

    def check(self, out: dict) -> list[str]:
        if out["code"] != 0:
            return [f"eval exited {out['code']}"]
        with open(self.path("report.csv"), encoding="utf-8") as fh:
            cells = [row for row in csv.DictReader(fh) if int(row["n_samples"]) > 0]
        means = [float(v) for c in cells for k, v in c.items() if k.endswith("_mean")]
        if not all(math.isfinite(v) for v in means):
            return ["report has non-finite cell means"]
        out["samples"] = sum(int(c["n_samples"]) * int(c["n_seeds"]) for c in cells)
        self.ade = float(np.average([float(c["ais_min_ade_mean"]) for c in cells],
                                    weights=[int(c["n_samples"]) for c in cells]))
        return []

    def quality(self) -> float:
        """Sample-weighted `ais_min_ade_mean` over the populated report cells."""
        return self.ade


WORKLOADS = {w.name: w for w in (Train, EvalGrid)}
