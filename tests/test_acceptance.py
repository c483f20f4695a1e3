"""Package-level statistical gates, one pass/fail line per criterion.

Each test prints `criterion NN <name>: PASS|FAIL (<measurements>)` and then
asserts the stated bound, so a verbose run doubles as the scoreboard.
"""

import time

import numpy as np

from curelet.chi2model import (
    reconstruct_magnitude,
    rescale_squared,
    sample_chi2,
    sample_rician,
)
from curelet.pipeline import denoise_mr, make_phantom, psnr
from curelet.shrinkage import cureshrink_denoise, cureshrink_subband
from curelet.transforms import (
    bdct8_bank,
    haar_step,
    haar_uwt_bank,
    parent_field,
)
from oracles import (
    analyze,
    combine_evaluations,
    cure_filterbank_divergence,
    cure_subband,
    cureshrink_evaluation,
    dense_band_matrices,
    dense_filterbank_cure,
    joint_let_atoms,
    let_atom_pointwise,
    mse_oracle,
    pointwise_let_evaluations,
    pyramid_round_trip_error,
    synthesize,
)


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def snr_level_field(mu, snr_db, K=2.0):
    """Scale mu^2 so the chi-square data has the requested input SNR.

    With x = t mu^2 the data y has signal energy sum x^2 and noise energy
    sum Var(y) = sum(4x + 2K); t solves the resulting quadratic.
    """
    g = 10.0 ** (snr_db / 10.0)
    m2 = float((mu ** 2).sum())
    m4 = float((mu ** 4).sum())
    n = mu.size
    disc = (4.0 * g * m2) ** 2 + 4.0 * m4 * g * 2.0 * K * n
    t = (4.0 * g * m2 + np.sqrt(disc)) / (2.0 * m4)
    return mu ** 2 * t


# Shared 64x64 noncentrality pattern for the unbiasedness runs.
MC_RUNS = 500
MC_X = (make_phantom("shepp-logan", 64) / 25.0) ** 2

# Fixed LET weights: unbiasedness holds for any data-independent choice,
# so the expansions are frozen here instead of risk-optimized.
POINTWISE_FIXED = {"bias": 1.0, "l3": 0.7, "l9": 0.2}
JOINT_FIXED = np.array([0.5, 0.2, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])

# Denoising-trend protocol: one phantom, three noise levels, ten seeds.
TREND_SIGMAS = (10.0, 30.0, 50.0)
TREND_SEEDS = range(10)
_TREND_CACHE = {}


def trend_mean_psnrs():
    """Mean PSNR of each method over the shared phantom protocol."""
    if _TREND_CACHE:
        return _TREND_CACHE
    mu = make_phantom("shepp-logan", 128)
    table = {name: [] for name in
             ("input", "cureshrink", "haar-cs1", "haar-cs16", "uwt")}
    for sigma in TREND_SIGMAS:
        for seed in TREND_SEEDS:
            m = sample_rician(mu, sigma, seed=seed)
            table["input"].append(psnr(m, mu))
            y = rescale_squared(m, sigma).samples
            xhat, _ = cureshrink_denoise(y, 2.0, J=3)
            table["cureshrink"].append(
                psnr(reconstruct_magnitude(xhat, sigma), mu))
            for method in ("haar-cs1", "haar-cs16", "uwt"):
                est = denoise_mr(m, sigma=sigma, method=method).estimate
                table[method].append(psnr(est, mu))
    _TREND_CACHE.update({k: float(np.mean(v)) for k, v in table.items()})
    return _TREND_CACHE


def test_criterion_01_image_risk_unbiased():
    t0 = time.time()
    bank = haar_uwt_bank(2)
    cures, mses = [], []
    for seed in range(MC_RUNS):
        y = sample_chi2(MC_X, 2, seed=seed).samples
        evs = pointwise_let_evaluations(
            [bank], y, 2.0, lambda atoms: [POINTWISE_FIXED[label.rsplit(":", 1)[1]]
                                         for _, label in atoms])
        cures.append(cure_filterbank_divergence(y, 2.0, evs, bank))
        mses.append(mse_oracle(synthesize(bank, [ev.theta for ev in evs]),
                               MC_X))
    wall = time.time() - t0
    cures, mses = np.asarray(cures), np.asarray(mses)
    se = mses.std(ddof=1) / np.sqrt(MC_RUNS)
    dev = abs(cures.mean() - mses.mean()) / se
    ok = dev <= 4.0 and wall < 120.0
    report(1, "image-domain risk estimate unbiased", ok,
           f"|mean risk - mean mse| = {dev:.2f} se over {MC_RUNS} runs, "
           f"{wall:.0f}s")
    assert dev <= 4.0
    assert wall < 120.0


def test_criterion_02_subband_risk_unbiased():
    clean, x_s = [], MC_X  # the clean details of levels 1 and 2
    for _ in range(2):
        x_s, omegas = haar_step(x_s)
        clean.append(omegas)
    cells = {}
    for seed in range(MC_RUNS):
        s = sample_chi2(MC_X, 2, seed=seed).samples
        for j in (1, 2):
            s, details = haar_step(s)
            kj = 2.0 * 4 ** j
            for orient in ("lh", "hl", "hh"):
                w = details[orient]
                omega = clean[j - 1][orient]
                ev = cureshrink_evaluation(w, s, 1.0, beta=0.5, delta=1e-3)
                atoms = joint_let_atoms(w, s, parent_field(s, orient),
                                        deltas=(0.5, 0.5))
                comb = combine_evaluations(atoms, JOINT_FIXED)
                for kind, e in (("plain", ev), ("joint", comb)):
                    pair = (cure_subband(w, s, kj, e),
                            float(((e.theta - omega) ** 2).mean()))
                    cells.setdefault(f"{kind}/{orient}{j}", []).append(pair)
    worst_key, worst = "", 0.0
    for key, pairs in cells.items():
        arr = np.asarray(pairs)
        se = arr[:, 1].std(ddof=1) / np.sqrt(MC_RUNS)
        dev = abs(arr[:, 0].mean() - arr[:, 1].mean()) / se
        if dev > worst:
            worst_key, worst = key, dev
    ok = worst <= 4.0
    report(2, "subband risk estimate unbiased", ok,
           f"worst of {len(cells)} cells: {worst_key} at {worst:.2f} se")
    assert worst <= 4.0, worst_key


def test_criterion_03_correlation_risk_equals_dense():
    worst = 0.0
    for make_bank in (lambda: haar_uwt_bank(2), bdct8_bank):
        for size in (8, 16):
            bank = make_bank()
            mats = dense_band_matrices(bank, (size, size))
            for trial in range(20):
                rng = rng_of(31000 + 100 * size + trial)
                x = rng.uniform(0.0, 25.0, size=(size, size))
                y = sample_chi2(x, 2, seed=31500 + 100 * size + trial).samples
                evs = pointwise_let_evaluations(
                    [bank], y, 2.0,
                    lambda atoms: rng.uniform(-0.5, 1.5, size=len(atoms)))
                fast = cure_filterbank_divergence(y, 2.0, evs, bank)
                dense = dense_filterbank_cure(y, 2.0, evs, bank, mats=mats)
                worst = max(worst, abs(fast - dense) / abs(dense))
    ok = worst <= 1e-9
    report(3, "correlation risk equals dense matrices", ok,
           f"max relative deviation {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_perfect_reconstruction():
    worst = 0.0
    for shape in ((8, 8), (16, 16), (64, 64), (17, 13)):
        y = rng_of(7000 + shape[0]).uniform(0.0, 50.0, size=shape)
        for levels in (1, 2, 3):
            bank = haar_uwt_bank(levels)
            worst = max(worst,
                        float(np.abs(synthesize(bank, analyze(bank, y)) - y).max()))
            worst = max(worst, pyramid_round_trip_error(y, levels))
        bank = bdct8_bank()
        worst = max(worst,
                    float(np.abs(synthesize(bank, analyze(bank, y)) - y).max()))
    ok = worst <= 1e-10
    report(4, "perfect reconstruction", ok, f"max round-trip error {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_05_risk_picked_threshold_near_oracle():
    x = snr_level_field(make_phantom("shepp-logan", 256), 15.0)
    omega = haar_step(x)[1]["hh"]
    worst = 0.0
    for seed in range(500, 510):
        s, details = haar_step(sample_chi2(x, 2, seed=seed).samples)
        w = details["hh"]
        kj = 8.0  # the level-1 sums add 4 pixels of dof 2
        assert w.size == 128 * 128
        theta_risk, _, _ = cureshrink_subband(w, s, kj)
        theta_star, _, _ = cureshrink_subband(
            w, s, kj,
            objective=lambda a, theta: float(((theta - omega) ** 2).sum()))
        mse_risk = float(((theta_risk - omega) ** 2).mean())
        mse_star = float(((theta_star - omega) ** 2).mean())
        worst = max(worst, mse_risk / mse_star)
    ok = worst <= 1.05
    report(5, "risk-picked threshold tracks mse oracle", ok,
           f"worst mse ratio {worst:.4f} over 10 seeds")
    assert worst <= 1.05


def test_criterion_06_joint_atoms_beat_plain_threshold():
    means = trend_mean_psnrs()
    gap = means["haar-cs1"] - means["cureshrink"]
    ok = gap >= 0.5
    report(6, "joint expansion beats plain threshold", ok,
           f"mean gap {gap:+.2f} dB over {len(TREND_SIGMAS)}x"
           f"{len(TREND_SEEDS)} runs")
    assert gap >= 0.5


def test_criterion_07_cycle_spinning_approaches_shift_invariance():
    means = trend_mean_psnrs()
    gap = means["haar-cs16"] - means["uwt"]
    recovered = means["haar-cs16"] - means["haar-cs1"]
    ok = abs(gap) <= 0.5 and recovered >= 0.0
    report(7, "sixteen spins approach the shift-invariant expansion", ok,
           f"cs16 vs uwt {gap:+.2f} dB, cs16 vs cs1 {recovered:+.2f} dB")
    assert recovered >= 0.0
    assert abs(gap) <= 0.5


def _fd_margin(build, w, v, h=1e-4):
    """Worst |declared - central difference| normalized by the fd scale."""
    ev = build(w, v)
    margin = 0.0
    for declared, fd in [
        (ev.d1, (build(w + h, v).theta - build(w - h, v).theta) / (2 * h)),
        (ev.d2, (build(w, v + h).theta - build(w, v - h).theta) / (2 * h)),
        (ev.d11, (build(w + h, v).d1 - build(w - h, v).d1) / (2 * h)),
        (ev.d22, (build(w, v + h).d2 - build(w, v - h).d2) / (2 * h)),
        (ev.d12, (build(w, v + h).d1 - build(w, v - h).d1) / (2 * h)),
    ]:
        scale = max(float(np.abs(fd).max()), 1e-9)
        dev = np.abs(np.broadcast_to(declared, fd.shape) - fd)
        margin = max(margin, float((dev / (np.abs(fd) + scale)).max()))
    return margin


def test_criterion_08_declared_partials_match_finite_differences():
    rng = rng_of(401)
    # 1000 scalar points per pointwise atom; the keep factor varies on the
    # scale of w near 0, so |w| and the variance channel stay bounded away
    w = rng.choice([-1.0, 1.0], size=1000) * rng.uniform(0.15, 12.0, size=1000)
    v = rng.uniform(0.7, 15.0, size=1000)
    margin = 0.0
    for lam in (3.0, 9.0):
        margin = max(margin, _fd_margin(
            lambda a, b: let_atom_pointwise(a, b, lam, eps=1e-9), w, v))
    for a in (0.5, 1.5):
        margin = max(margin, _fd_margin(
            lambda wa, sa: cureshrink_evaluation(wa, sa, a, beta=0.05,
                                                 delta=1e-6), w, v))

    # joint atoms couple neighbors through the smoothing kernel, so probe
    # one coordinate at a time: 25 coords x 8 atoms x 5 partials = 1000
    shape = (16, 16)
    wf = rng.normal(scale=3.0, size=shape)
    sf = rng.uniform(2.0, 30.0, size=shape)
    pf = rng.normal(scale=2.0, size=shape)

    def build(w2, s2):
        return joint_let_atoms(w2, s2, pf, deltas=(0.05, 0.05))

    base = build(wf, sf)
    h = 1e-4
    checked = 0
    for n in [tuple(c) for c in rng.integers(0, 16, size=(25, 2))]:
        dn = np.zeros(shape)
        dn[n] = h
        wp, wm = build(wf + dn, sf), build(wf - dn, sf)
        sp, sm = build(wf, sf + dn), build(wf, sf - dn)
        for k in range(8):
            for declared, hi, lo in [
                (base[k].d1[n], wp[k].theta[n], wm[k].theta[n]),
                (base[k].d2[n], sp[k].theta[n], sm[k].theta[n]),
                (base[k].d11[n], wp[k].d1[n], wm[k].d1[n]),
                (base[k].d22[n], sp[k].d2[n], sm[k].d2[n]),
                (base[k].d12[n], sp[k].d1[n], sm[k].d1[n]),
            ]:
                fd = (hi - lo) / (2 * h)
                # abs floor 1e-6 at the shared rel gate: 1e-6 / 1e-5 = 0.1
                margin = max(margin, abs(declared - fd) / (abs(fd) + 0.1))
                checked += 1
    assert checked == 1000
    ok = margin <= 1e-5
    report(8, "declared partials match finite differences", ok,
           f"worst normalized deviation {margin:.2e}")
    assert margin <= 1e-5


def test_criterion_09_end_to_end_gain():
    mu = make_phantom("shepp-logan", 128)
    sigma = 18.0
    gains, inputs = [], []
    for seed in TREND_SEEDS:
        m = sample_rician(mu, sigma, seed=seed)
        inputs.append(psnr(m, mu))
        est = denoise_mr(m, sigma=sigma, method="uwt-bdct").estimate
        gains.append(psnr(est, mu) - inputs[-1])
    mean_in = float(np.mean(inputs))
    mean_gain = float(np.mean(gains))
    ok = mean_gain >= 6.0 and abs(mean_in - 21.0) <= 1.0
    report(9, "end-to-end gain at 21 dB input", ok,
           f"input {mean_in:.1f} dB, mean gain {mean_gain:+.2f} dB")
    assert abs(mean_in - 21.0) <= 1.0
    assert mean_gain >= 6.0


def test_criterion_10_scaling_channel_moments():
    x0 = 7.5
    x = np.full((64, 64), x0)
    draws = {1: [], 2: []}
    for seed in range(400):
        s = sample_chi2(x, 2, seed=20000 + seed).samples
        for j in (1, 2):
            s, _ = haar_step(s)
            draws[j].append(s.ravel())
    worst = 0.0
    counts = []
    for j in (1, 2):
        sample = np.concatenate(draws[j])
        n = sample.size
        counts.append(n)
        assert n >= 10 ** 5
        kj = 2.0 * 4 ** j
        lam = x0 * 4 ** j
        se_mean = sample.std(ddof=1) / np.sqrt(n)
        worst = max(worst, abs(sample.mean() - (kj + lam)) / se_mean)
        c = sample - sample.mean()
        m2 = float((c ** 2).mean())
        m4 = float((c ** 4).mean())
        se_var = np.sqrt((m4 - m2 ** 2) / n)
        var_th = 2.0 * (kj + 2.0 * lam)
        worst = max(worst, abs(m2 * n / (n - 1) - var_th) / se_var)
    ok = worst <= 4.0
    report(10, "pyramid scaling channel keeps chi-square moments", ok,
           f"worst deviation {worst:.2f} se at n={min(counts)}+ draws")
    assert worst <= 4.0
