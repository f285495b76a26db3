"""Every workload's gate passes the program's answer and rejects a wrong one."""

import dataclasses
import hashlib
import json

import numpy as np

import worker
import workloads as wl


def test_ensemble_gate_rejects_shifted_oracle():
    from openkpz import shesolver

    ens = wl.Ensemble(3)
    cfg = shesolver.SimConfig(dx=ens.dx, t_final=ens.times[-1], n_paths=ens.n_paths,
                              seed=7, save_times=ens.times)
    res = shesolver.simulate_she(np.ones(ens.n + 1), ens.params, cfg)
    snaps = {t: res.valid(t) for t in ens.times}
    assert wl.check_mean_field(snaps, ens.oracle, ens.cols).ok
    shifted = {t: 1.1 * o for t, o in ens.oracle.items()}
    assert not wl.check_mean_field(snaps, shifted, ens.cols).ok
    # the Robin coefficients u - 1/2, v - 1/2 with the wrong sign
    wrong_law = shesolver.BoundaryParams(1.0 - ens.u, 1.0 - ens.v)
    wrong = {t: shesolver.robin_semigroup_apply(np.ones(ens.n + 1), wrong_law, ens.dx, t)
             for t in ens.times}
    assert not wl.check_mean_field(snaps, wrong, ens.cols).ok


def test_single_path_gates_reject_wrong_law_and_growing_distance():
    from openkpz import harness

    sp = wl.SinglePath(3)
    rep = harness.ergodic_average(sp.u, sp.v, "endpoint", t_final=sp.t_final, dx=sp.dx,
                                  seed=11, n_reference=sp.n_reference)
    avg, se = rep.statistics["time_average"], rep.statistics["se_time"]
    assert wl.check_ergodic(avg, se, sp.u).ok
    # the wrong law: drift u + 1 has E h(1) = u + 1
    assert not wl.check_ergodic(avg, se, sp.u + 1.0).ok
    assert wl.check_coupling(1.0, 0.1).ok
    assert not wl.check_coupling(0.1, 1.0).ok


def test_stationary_gate_rejects_shifted_oracle_and_bad_acceptance():
    from openkpz import stationary

    st = wl.Stationary(3, tiny=True)
    mcmc = stationary.sample_stationary_mcmc(st.u, st.v, stationary.McmcConfig(seed=4, **st.mcmc),
                                             st.dx)
    moments = stationary.importance_sampling_moments(st.u, st.v, st.dx, st.n_is, 5, st.cols)
    samples = mcmc.samples[:, st.cols]
    assert wl.check_moments(samples, mcmc.acceptance_rate, moments).ok
    shifted = dict(moments, mean=moments["mean"] + 1.0)
    assert not wl.check_moments(samples, mcmc.acceptance_rate, shifted).ok
    assert not wl.check_moments(samples, 0.99, moments).ok


def test_cli_gate_rejects_flipped_byte_and_wrong_value():
    payload = json.dumps({"value": wl.CONSTANT_A_FROZEN}).encode()
    first = wl.check_artifact("constant-a", 0, payload, None, wl._constant_a_oracle)
    assert first.ok
    digest = hashlib.sha256(payload).hexdigest()
    flipped = bytes([payload[0] ^ 1]) + payload[1:]
    assert wl.check_artifact("constant-a", 0, payload, digest).ok
    assert not wl.check_artifact("constant-a", 0, flipped, digest).ok
    assert not wl.check_artifact("constant-a", 1, payload, digest).ok
    wrong = json.dumps({"value": wl.CONSTANT_A_FROZEN + 1e-3}).encode()
    assert not wl.check_artifact("constant-a", 0, wrong, None, wl._constant_a_oracle).ok


def test_corrupted_golden_row_raises_failed_ratio(tmp_path, monkeypatch):
    from openkpz.treealg import golden

    rows = golden.load_golden_rows()
    rows[3] = dataclasses.replace(rows[3], degree=rows[4].degree)
    monkeypatch.setattr(golden, "load_golden_rows", lambda: rows)
    record, _ = worker.run("cli-artifacts", 5, 0.0, False, tmp_path, tiny=True)
    failed = [g for op in record["ops"] for g in op["gates"] if not g["ok"]]
    assert record["failed"] == len(failed) > 0
    assert {g["label"] for g in failed} == {"verify-algebra"}
