"""Exact resume: checkpointed engines, task stores, graceful signals.

The acceptance bar throughout is *byte identity*: a run that is killed
and resumed (any number of times, at any checkpoint boundary) must
produce the same serialised report as one that never stopped.
"""

import dataclasses
import json
import os
import signal

import pytest

from repro.devices.parameters import MODERN_STT
from repro.durability import (
    Checkpointer,
    CheckpointPolicy,
    Interrupted,
    NVImageStore,
    TaskStore,
    graceful_signals,
    resume_intermittent,
    resume_profile,
    run_resumable,
)
from repro.durability.resume import TaskStoreMismatch
from repro.energy.model import InstructionCostModel
from repro.faults.campaign import adder_workload
from repro.harvest.capacitor import EnergyBuffer
from repro.harvest.intermittent import (
    HarvestingConfig,
    InstructionProfile,
    IntermittentRun,
    ProfileRun,
)
from repro.harvest.source import ConstantPowerSource


def harvesting_config():
    """Tiny buffer + weak source: the ~100-instruction adder workload
    still sees dozens of outages."""
    return HarvestingConfig(
        source=ConstantPowerSource(5e-9),
        buffer=EnergyBuffer(capacitance=2e-10, v_off=0.30, v_on=0.34),
    )


def breakdown_json(breakdown):
    return json.dumps(dataclasses.asdict(breakdown), sort_keys=True)


class _Killed(BaseException):
    """Stands in for SIGKILL inside one process."""


class TestIntermittentResume:
    def reference(self):
        workload = adder_workload(MODERN_STT)
        run = IntermittentRun(workload.build(), harvesting_config())
        breakdown = run.run()
        return workload, breakdown_json(breakdown), workload.readout(run.mouse)

    @pytest.mark.parametrize("kill_at", [1, 17, 50, 99])
    def test_kill_at_commit_resumes_byte_identical(self, tmp_path, kill_at):
        workload, expected, expected_readout = self.reference()

        checkpointer = Checkpointer(tmp_path, CheckpointPolicy(period=8))
        original = checkpointer.on_commit

        def killing(run):
            original(run)
            if run.executed >= kill_at:
                raise _Killed

        checkpointer.on_commit = killing
        run = IntermittentRun(
            workload.build(), harvesting_config(), checkpointer=checkpointer
        )
        with pytest.raises(_Killed):
            run.run()

        try:
            resumed = resume_intermittent(
                tmp_path,
                checkpointer=Checkpointer(tmp_path, CheckpointPolicy(period=8)),
            )
        except FileNotFoundError:
            # Killed before the first image commit: a fresh start *is*
            # the exact resume (nothing durable had happened yet).
            resumed = IntermittentRun(workload.build(), harvesting_config())
        breakdown = resumed.run()
        assert breakdown_json(breakdown) == expected
        assert workload.readout(resumed.mouse) == expected_readout

    def test_kill_at_outage_boundary_resumes_byte_identical(self, tmp_path):
        workload, expected, expected_readout = self.reference()

        checkpointer = Checkpointer(tmp_path, CheckpointPolicy(period=10_000))
        original = checkpointer.on_outage
        outages = []

        def killing(run):
            original(run)
            outages.append(run.executed)
            if len(outages) >= 3:
                raise _Killed

        checkpointer.on_outage = killing
        run = IntermittentRun(
            workload.build(), harvesting_config(), checkpointer=checkpointer
        )
        with pytest.raises(_Killed):
            run.run()

        resumed = resume_intermittent(tmp_path)
        assert resumed._resume_phase == "outage"
        breakdown = resumed.run()
        assert breakdown_json(breakdown) == expected
        assert workload.readout(resumed.mouse) == expected_readout

    def test_repeated_kills_still_byte_identical(self, tmp_path):
        """Kill on every single checkpoint commit until the run finally
        completes — the hardest schedule a crash can produce."""
        workload, expected, _ = self.reference()

        breakdown = None
        for attempt in range(200):
            checkpointer = Checkpointer(tmp_path, CheckpointPolicy(period=16))
            original_commit = checkpointer._commit

            def kill_after_commit(payload, sim_time):
                original_commit(payload, sim_time)
                raise _Killed

            checkpointer._commit = kill_after_commit
            try:
                run = resume_intermittent(tmp_path, checkpointer=checkpointer)
            except FileNotFoundError:
                run = IntermittentRun(
                    workload.build(),
                    harvesting_config(),
                    checkpointer=checkpointer,
                )
            try:
                breakdown = run.run()
                break
            except _Killed:
                continue
        else:
            pytest.fail("run never completed")
        # The final halt image also commits, so completion requires one
        # attempt whose last checkpoint *is* the halt (period > remaining
        # work never happens here); the loop always terminates because
        # each attempt advances at least one full period.
        assert breakdown is not None
        assert breakdown_json(breakdown) == expected

    def test_resume_wrong_kind_rejected(self, tmp_path):
        store = NVImageStore(tmp_path)
        store.commit({"kind": "profile"})
        with pytest.raises(ValueError, match="not an"):
            resume_intermittent(tmp_path)


class TestProfileResume:
    def make_profile(self):
        profile = InstructionProfile(name="toy", active_columns=4)
        profile.add(700, 4e-12, 1e-13, "dots")
        profile.add(800, 3e-12, 2e-13, "adds")
        return profile

    def config(self):
        return HarvestingConfig(
            source=ConstantPowerSource(5e-9),
            buffer=EnergyBuffer(capacitance=1e-9, v_off=0.30, v_on=0.34),
        )

    def test_kill_at_burst_boundary_resumes_byte_identical(self, tmp_path):
        cost = InstructionCostModel(MODERN_STT)
        reference = ProfileRun(self.make_profile(), cost, self.config()).run()
        expected = breakdown_json(reference)

        # Bursts here are only a few instructions (tiny buffer), so a
        # short period guarantees image commits before the kill.
        checkpointer = Checkpointer(tmp_path, CheckpointPolicy(period=10))
        original = checkpointer.on_profile_point
        points = []

        def killing(run):
            original(run)
            points.append(run.ledger.breakdown.instructions)
            if len(points) >= 40:
                raise _Killed

        checkpointer.on_profile_point = killing
        run = ProfileRun(
            self.make_profile(), cost, self.config(), checkpointer=checkpointer
        )
        with pytest.raises(_Killed):
            run.run()

        resumed = resume_profile(tmp_path)
        assert resumed._resumed
        # The image was taken mid-run: the cursor is inside the stream.
        assert 0 < resumed.ledger.breakdown.instructions < 1500
        assert breakdown_json(resumed.run()) == expected

    @staticmethod
    def adaptive_run(leakage_amps, checkpointer=None):
        from repro.env import AdaptivePolicy, solar_diurnal
        from repro.ml.benchmarks import SVM_ADULT

        cost = InstructionCostModel(MODERN_STT)
        trace = solar_diurnal(
            seed=1, peak_watts=2e-4, floor_watts=3e-5, day_length=0.2
        )
        return ProfileRun(
            SVM_ADULT.profile(cost),
            cost,
            HarvestingConfig.from_trace(
                MODERN_STT, trace, leakage_amps=leakage_amps
            ),
            checkpoint_period=2,
            adaptive=AdaptivePolicy(),
            checkpointer=checkpointer,
        )

    @staticmethod
    def final_state(run, breakdown):
        return (
            breakdown_json(breakdown),
            run.time,
            run.config.buffer.voltage,
            dict(run.degraded),
        )

    @pytest.mark.parametrize("leakage_amps", [0.0, 5e-5], ids=["ideal", "leaky"])
    def test_adaptive_run_resumes_from_every_image(self, tmp_path, leakage_amps):
        """The cadence policy and the degraded tallies travel in the
        image: resuming from any image reproduces the uninterrupted
        adaptive run."""
        straight = self.adaptive_run(leakage_amps)
        expected = self.final_state(straight, straight.run())
        assert expected[3]["skipped_checkpoint"] > 0

        checkpointer = Checkpointer(
            tmp_path / "live", CheckpointPolicy(period=5000)
        )
        images = []
        commit = checkpointer.store.commit

        def recording_commit(payload):
            images.append(json.loads(json.dumps(payload)))
            return commit(payload)

        checkpointer.store.commit = recording_commit
        self.adaptive_run(leakage_amps, checkpointer).run()
        assert len(images) >= 5

        for i, payload in enumerate(images):
            NVImageStore(tmp_path / f"image{i}").commit(payload)
            resumed = resume_profile(tmp_path / f"image{i}")
            assert resumed.adaptive is not None
            assert self.final_state(resumed, resumed.run()) == expected, i

    def _one_image(self, directory):
        checkpointer = Checkpointer(directory, CheckpointPolicy(period=10))
        ProfileRun(
            self.make_profile(),
            InstructionCostModel(MODERN_STT),
            self.config(),
            checkpointer=checkpointer,
        ).run()
        payload, _seq = checkpointer.store.load()
        return payload

    def test_image_without_policy_resumes_at_fixed_cadence(self, tmp_path):
        payload = self._one_image(tmp_path / "live")
        del payload["adaptive"], payload["degraded"]
        NVImageStore(tmp_path / "old").commit(payload)
        resumed = resume_profile(tmp_path / "old")
        assert resumed.adaptive is None
        assert resumed.degraded == {
            "skipped_checkpoint": 0, "deferred_commit": 0, "fail_stop": 0
        }

    def test_policy_off_its_defaults_travels_in_the_image(self):
        """Every AdaptivePolicy field is stored, so a policy with no
        default value resumes as itself."""
        from repro.durability.state import decode_policy, encode_policy
        from repro.env import AdaptivePolicy

        policy = AdaptivePolicy(
            max_period=5,
            tighten_below=0.4,
            defer_below=0.2,
            max_charge_retries=3,
            charge_backoff=2.5,
        )
        assert all(
            getattr(policy, f.name) != f.default
            for f in dataclasses.fields(policy)
        )
        image = json.loads(json.dumps(encode_policy(policy)))
        assert decode_policy(image) == policy

    @pytest.mark.parametrize(
        "adaptive",
        [
            5,
            [16, 0.25, 0.1, 8, 1.5],
            {"max_period": 16},
            {"max_period": "16", "tighten_below": 0.25, "defer_below": 0.1,
             "max_charge_retries": 8, "charge_backoff": 1.5},
            {"max_period": 16, "tighten_below": 1.5, "defer_below": 0.1,
             "max_charge_retries": 8, "charge_backoff": 1.5},
            {"max_period": 16, "tighten_below": 0.25, "defer_below": 0.1,
             "max_charge_retries": True, "charge_backoff": 1.5},
        ],
        ids=["int", "list", "missing", "string", "range", "bool"],
    )
    def test_malformed_policy_rejected(self, tmp_path, adaptive):
        payload = self._one_image(tmp_path / "live")
        payload["adaptive"] = adaptive
        NVImageStore(tmp_path / "bad").commit(payload)
        with pytest.raises(ValueError):
            resume_profile(tmp_path / "bad")


class TestTaskStore:
    def test_put_get_done(self, tmp_path):
        store = TaskStore(tmp_path, fingerprint={"exp": "t", "n": 3})
        store.put("a", {"x": 1.5})
        assert store.get("a") == {"x": 1.5}
        with pytest.raises(KeyError):
            store.get("b")
        assert store.done(["a", "b"]) == {"a"}

    def test_fingerprint_mismatch_fails_loudly(self, tmp_path):
        TaskStore(tmp_path, fingerprint={"exp": "t", "n": 3})
        TaskStore(tmp_path, fingerprint={"exp": "t", "n": 3})  # same: fine
        with pytest.raises(TaskStoreMismatch):
            TaskStore(tmp_path, fingerprint={"exp": "t", "n": 4})

    def test_torn_task_file_recomputed(self, tmp_path):
        store = TaskStore(tmp_path, fingerprint={})
        store.put("a", [1, 2, 3])
        store.path_for("a").write_text('{"key": "a", "resul')  # torn
        with pytest.raises(KeyError):
            store.get("a")
        assert store.done(["a"]) == set()


class TestRunResumable:
    def test_results_in_key_order(self, tmp_path):
        store = TaskStore(tmp_path, fingerprint={"exp": "order"})
        results = run_resumable(
            ["x", "y"], [lambda: 1, lambda: 2], store, jobs=1
        )
        assert results == [1, 2]

    def test_resume_skips_completed(self, tmp_path):
        store = TaskStore(tmp_path, fingerprint={"exp": "skip"})
        store.put("x", 10)
        calls = []

        def compute_x():
            calls.append("x")
            return 1

        def compute_y():
            calls.append("y")
            return 2

        results = run_resumable(
            ["x", "y"], [compute_x, compute_y], store, jobs=1
        )
        assert results == [10, 2]
        assert calls == ["y"]

    def test_straight_and_resumed_identical(self, tmp_path):
        def thunks():
            return [lambda v=v: {"v": v * 0.1} for v in range(4)]

        keys = [f"t{v}" for v in range(4)]
        straight = run_resumable(keys, thunks(), None, jobs=1)

        store = TaskStore(tmp_path, fingerprint={"exp": "s"})
        # "Kill" after the first two tasks...
        run_resumable(keys[:2], thunks()[:2], store, jobs=1)
        # ...and resume the full set against the same store.
        resumed = run_resumable(keys, thunks(), store, jobs=1)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            straight, sort_keys=True
        )

    def test_storeless_path_round_trips_json(self):
        """Even without a store every result passes decode(encode(...)),
        so downstream output cannot depend on whether a store was used."""
        result = run_resumable(
            ["a"],
            [lambda: (1, 2.5)],
            None,
            jobs=1,
            encode=lambda r: list(r),
            decode=tuple,
        )
        assert result == [(1, 2.5)]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            run_resumable(["a", "a"], [lambda: 1, lambda: 2], None, jobs=1)


class TestSignals:
    def test_exit_codes(self):
        assert Interrupted(signal.SIGINT).exit_code == 130
        assert Interrupted(signal.SIGTERM).exit_code == 143

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_becomes_interrupted(self, signum):
        cleaned_up = []
        with pytest.raises(Interrupted) as excinfo:
            with graceful_signals():
                try:
                    os.kill(os.getpid(), signum)
                    for _ in range(10_000):  # let the handler fire
                        pass
                    pytest.fail("signal never delivered")
                finally:
                    cleaned_up.append(True)
        assert excinfo.value.signum == signum
        assert cleaned_up == [True]

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with graceful_signals():
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_interrupted_not_caught_by_except_exception(self):
        with pytest.raises(Interrupted):
            with graceful_signals():
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    for _ in range(10_000):
                        pass
                except Exception:  # the trap Interrupted must escape
                    pytest.fail("Interrupted was swallowed")
