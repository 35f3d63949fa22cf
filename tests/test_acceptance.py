"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Every tolerance below is pinned; nothing is deferred.
"""

import time
from pathlib import Path

import numpy as np

from laplab import cli, lap, matkit, models, perturb, scenario, verify

from conftest import random_finite_pair, random_hermitian

SQ5 = np.sqrt(5.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def embedded():
    return models.make_direct_sum(
        (models.FreeLattice1D(), models.delta_rigging()),
        (models.FiniteHermitian(np.array([[0.0]])), models.FiniteRigging(np.array([[1.0]]))),
    )


def test_01_closed_form_lap_oracle():
    """Extrapolated lattice limit matches i / sqrt(4 - lam^2) to 1e-6."""
    model, rig = models.FreeLattice1D(), models.delta_rigging()
    worst = 0.0
    slowest = 0.0
    for lam in np.linspace(-1.8, 1.8, 37):
        t0 = time.perf_counter()
        samples = lap.evaluate_on_grid(
            lambda pt: models.sandwiched_resolvent(model, rig, pt), float(lam), lap.DEFAULT_GRID
        )
        out = lap.extrapolate_limit(samples, 1e-6)
        elapsed = time.perf_counter() - t0
        assert isinstance(out, lap.Converged)
        err = abs(complex(out.value[0, 0]) - 1j / np.sqrt(4.0 - lam * lam))
        assert err <= 1e-6, f"lam={lam}: error {err:.3e}"
        assert elapsed < 0.05, f"lam={lam}: {elapsed * 1e3:.1f} ms"
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    report(1, f"37-point lambda grid, max error {worst:.2e}, max {slowest * 1e3:.1f} ms/point")


def test_02_truncation_oracle():
    """Closed-form lattice T_z vs 4001-site truncation, 1e-8 for y >= 0.1."""
    rng = np.random.default_rng(20260802)
    rig = models.delta_rigging()
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(-2.5, 2.5))
        y = float(rng.uniform(0.1, 2.0))
        z = complex(lam, y)
        exact = models.sandwiched_resolvent(models.FreeLattice1D(), rig, z)
        trunc = models.truncated_lattice_T(rig, z, n_sites=2000)
        err = float(np.linalg.norm(exact - trunc, 2))
        assert err <= 1e-8, f"z={z}: {err:.3e}"
        worst = max(worst, err)
    report(2, f"20 seeded (lambda, y) points vs 4001-site truncation, max error {worst:.2e}")


def test_03_identity_engine():
    """Direct vs identity routes, composition, left/right: 1e-10 on 300 scenarios."""
    rng = np.random.default_rng(20260803)
    worst = 0.0
    for _ in range(300):
        model, rig = random_finite_pair(rng, n_max=12, k_max=4)
        k = rig.k
        a = random_hermitian(rng, k)
        b = random_hermitian(rng, k)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.05, 2.0))
        t = models.sandwiched_resolvent(model, rig, z)
        via_identity = perturb.perturbed_resolvent(t, a)
        h_direct = perturb.finite_perturbed_hamiltonian(model, rig, a)
        direct = models.sandwiched_resolvent(models.FiniteHermitian(h_direct), rig, z)
        err = np.linalg.norm(via_identity - direct, 2)
        assert err <= 1e-10
        stacked = perturb.perturbed_resolvent(via_identity, b)
        merged = perturb.perturbed_resolvent(t, a + b)
        err_comp = np.linalg.norm(stacked - merged, 2)
        assert err_comp <= 1e-10
        right = t @ np.linalg.inv(np.eye(k) + a @ t)
        err_lr = np.linalg.norm(via_identity - right, 2)
        assert err_lr <= 1e-10
        worst = max(worst, err, err_comp, err_lr)
    report(3, f"300 finite scenarios: identity/composition/left-right, max dev {worst:.2e}")


def test_04_resonance_ground_truth():
    """lam=3: exactly one resonance at sqrt5; bound state of H0 + sqrt5 P0 at 3."""
    model, rig = models.FreeLattice1D(), models.delta_rigging()
    direction = perturb.Direction(np.array([[1.0]]))
    verdict = perturb.regular_direction(model, rig, 3.0, direction, window=(-5.0, 5.0))
    assert isinstance(verdict, perturb.Regular)
    table = verdict.resonances.resonances
    assert len(table) == 1
    assert table[0].multiplicity == 1
    assert abs(table[0].coupling - SQ5) <= 1e-8
    assert verdict.resonances.scan_agrees

    # the bound state decays like 0.38^|n|, so 200 sites hold it to rounding
    n_sites = 200
    h = np.diag(np.ones(2 * n_sites), 1) + np.diag(np.ones(2 * n_sites), -1)
    h[n_sites, n_sites] = SQ5
    vals = np.linalg.eigvalsh(h)
    bound = vals[(vals > 2.5) & (vals < 3.5)]
    assert len(bound) == 1 and abs(bound[0] - 3.0) <= 1e-6

    at_zero = perturb.regular_direction(model, rig, 0.0, direction, window=(-5.0, 5.0))
    assert isinstance(at_zero, perturb.Regular)
    assert at_zero.resonances.resonances == ()
    report(4, f"resonance at r={table[0].coupling:.9f}, bound state at {bound[0]:.9f}, empty set at lam=0")


def test_05_embedded_eigenvalue_scenario():
    """Base limit diverges (exponent ~1); T(H_1) = [[0,1],[1,2i]]; resonances {0} x2."""
    model, rig = embedded()
    base = perturb.boundary_limit(model, rig, 0.0)
    assert isinstance(base, lap.Diverged)
    assert 0.9 <= base.blowup_exponent <= 1.1

    direction = perturb.Direction(np.array([[0.0, 1.0], [1.0, 0.0]]))
    verdict = perturb.regular_direction(model, rig, 0.0, direction)
    assert isinstance(verdict, perturb.Regular)
    assert verdict.method == "extrapolated"
    target = np.array([[0.0, 1.0], [1.0, 2.0j]])
    err = np.linalg.norm(verdict.limit - target, 2)
    assert err <= 1e-6
    table = verdict.resonances.resonances
    assert len(table) == 1
    assert table[0].multiplicity == 2
    assert abs(table[0].coupling) <= 1e-8
    report(
        5,
        f"exponent {base.blowup_exponent:.3f}, limit error {err:.2e}, "
        f"resonance {table[0].coupling:.2e} (x{table[0].multiplicity})",
    )


def test_06_theorem_sweep():
    """100 seeded embedded scenarios: >= 80 established, conclusion always Regular."""
    result = verify.run_sweep("theorem", count=100)
    assert result.established >= 80
    assert result.failures == 0
    non_vacuous = [c for c in result.certificates if not c.vacuous]
    assert all(isinstance(c.conclusion, perturb.Regular) for c in non_vacuous)

    model, rig = embedded()
    cert = verify.verify_regular_direction_theorem(
        model, rig, 0.0, perturb.Direction(np.array([[0.0, 1.0], [1.0, 0.0]]))
    )
    assert cert.passed and not cert.vacuous
    err = np.linalg.norm(cert.conclusion.limit - np.diag([0.2 + 0.4j, 1.0]), 2)
    assert err <= 1e-6
    report(
        6,
        f"theorem sweep {result.established}/100 established, 0 failures; "
        f"worked-instance conclusion error {err:.2e}",
    )


def test_07_corollary_sweeps():
    """100 seeded cases per corollary; 100% pass among established premises."""
    abs_result = verify.run_sweep("cor-abs", count=100)
    assert abs_result.established >= 80
    assert abs_result.failures == 0
    mono_result = verify.run_sweep("cor-monotone", count=100)
    assert mono_result.established >= 80
    assert mono_result.failures == 0
    report(
        7,
        f"|J| sweep {abs_result.established}/100, monotone sweep "
        f"{mono_result.established}/100 established, 0 failures",
    )


def test_08_hellmann_feynman():
    """Analytic vs central FD at h = 1e-4 within 1e-6; quadratic decay ratio."""
    worst_err = 0.0
    ratios = []
    for i in range(50):
        rng = np.random.default_rng(verify.MASTER_SEED + i)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        path = verify.AnalyticPath((a, b))
        w = np.linalg.eigvalsh(path.value(1.0))
        gaps = np.minimum(np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf))
        which = int(np.argmax(gaps))
        analytic = verify.hellmann_feynman_derivative(path, 1.0, which)
        errs = {}
        for h in (1e-3, 1e-4):
            fd = (
                np.linalg.eigvalsh(path.value(1.0 + h))[which]
                - np.linalg.eigvalsh(path.value(1.0 - h))[which]
            ) / (2.0 * h)
            errs[h] = abs(fd - analytic)
        assert errs[1e-4] <= 1e-6
        ratio = errs[1e-3] / errs[1e-4]
        assert 50.0 <= ratio <= 200.0, f"seed {i}: ratio {ratio:.1f}"
        worst_err = max(worst_err, errs[1e-4])
        ratios.append(ratio)
    report(
        8,
        f"50 paths: max |analytic - FD| {worst_err:.2e}, "
        f"decay ratios in [{min(ratios):.0f}, {max(ratios):.0f}]",
    )


def test_09_proof_chain_regression():
    """Every certified singular point: eq1 <= 1e-8, Im-annihilation <= 1e-7, eq2 <= 1e-7."""
    checked = 0
    worst = {"eq1": 0.0, "im": 0.0, "eq2": 0.0}

    def run(t, direction, r, s):
        nonlocal checked
        rep = verify.proof_chain_check(t, direction, r, s)
        assert rep.status == "checked"
        assert rep.eq1_residual <= 1e-8
        assert rep.im_annihilation <= 1e-7
        assert rep.eq2_residual <= 1e-7
        worst["eq1"] = max(worst["eq1"], rep.eq1_residual)
        worst["im"] = max(worst["im"], rep.im_annihilation)
        worst["eq2"] = max(worst["eq2"], rep.eq2_residual)
        checked += 1

    # outside the band: T(3) = -1/sqrt5, singular at r = sqrt5, s = 2
    run(np.array([[-1.0 / SQ5]]), perturb.Direction(np.array([[1.0]])), SQ5, 2.0)

    # inside the band with vanishing Im T: channel f = (H0 - lam) delta_0
    for lam in (0.5, 1.0, -1.2):
        rig = models.lattice_rigging({-1: 1.0, 0: -lam, 1: 1.0})
        t = models.boundary_exact(models.FreeLattice1D(), rig, lam)
        run(t, perturb.Direction(np.array([[1.0]])), 1.0 / lam, 2.0)

    # seeded finite models off the spectrum: T Hermitian, eigenvalue route
    rng = np.random.default_rng(20260809)
    while checked < 24:
        model, rig = random_finite_pair(rng, n_max=8, k_max=3)
        lam = float(rng.uniform(-3, 3))
        t = models.boundary_exact(model, rig, lam)
        if t is None:
            continue
        j = random_hermitian(rng, rig.k)
        s = float(np.linalg.norm(j, 2) + rng.uniform(0.5, 2.0))
        weight = s * np.eye(rig.k) - j
        mu = matkit.eig_general(t @ weight)
        real_mu = [m for m in mu if abs(m.imag) <= 1e-9 * (1 + abs(m)) and abs(m) > 1e-8]
        if not real_mu:
            continue
        run(t, perturb.Direction(j), float(-1.0 / real_mu[0].real), s)

    assert checked >= 20
    report(
        9,
        f"{checked} singular points: eq1 <= {worst['eq1']:.1e}, "
        f"Im-annihilation <= {worst['im']:.1e}, eq2 <= {worst['eq2']:.1e}",
    )


def test_10_positivity_battery():
    """Smallest eigenvalue of Im T >= -1e-10 ||T|| on 1000 evaluations, y > 0."""
    rng = np.random.default_rng(20260810)
    lattice = models.FreeLattice1D()
    checked = 0
    worst = 0.0
    while checked < 1000:
        z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 10.0))
        kind = checked % 4
        if kind == 0:
            model, rig = random_finite_pair(rng)
            t = models.sandwiched_resolvent(model, rig, z)
        elif kind == 1:
            sites = {int(s): complex(a, b) for s, a, b in
                     zip(rng.integers(-3, 4, 2), rng.normal(size=2), rng.normal(size=2))}
            if not any(abs(v) > 1e-6 for v in sites.values()):
                continue
            rig = models.lattice_rigging(sites)
            t = models.sandwiched_resolvent(lattice, rig, z)
        elif kind == 2:
            model, rig = models.make_direct_sum(
                (lattice, models.delta_rigging()),
                (models.FiniteHermitian(np.array([[rng.uniform(-2, 2)]])),
                 models.FiniteRigging(np.array([[1.0]]))),
            )
            t = models.sandwiched_resolvent(model, rig, z)
        else:
            model, rig = random_finite_pair(rng)
            base = models.sandwiched_resolvent(model, rig, z)
            t = perturb.perturbed_resolvent(base, random_hermitian(rng, rig.k))
        norm = max(np.linalg.norm(t, 2), 1e-300)
        slack = np.linalg.eigvalsh(matkit.im_part(t))[0] / norm
        assert slack >= -1e-10
        worst = min(worst, slack)
        checked += 1
    report(10, f"1000 evaluations (incl. perturbed): min Im-eigenvalue slack {worst:.1e} * ||T||")


def test_11_determinism(tmp_path):
    """Repeated CLI runs on the checked-in corpus are byte-identical."""
    corpus = [
        ("lattice_limit.json", "limit"),
        ("embedded_limit.json", "limit"),
        ("lattice_lambda3_scan.json", "scan"),
        ("embedded_verify_thm.json", "verify-thm"),
        ("embedded_verify_thm_zero.json", "verify-thm"),
        ("embedded_verify_cor_abs.json", "verify-cor-abs"),
        ("lattice_cor_mono.json", "verify-cor-mono"),
        ("cor_mono_invalid.json", "verify-cor-mono"),
        ("finite_flow.json", "flow"),
        ("lattice_sweep_lambda.json", "limit"),
        ("lattice_sweep_r.json", "scan"),
        ("embedded_sweep_y.json", "limit"),
    ]
    for name, command in corpus:
        scn = scenario.load_scenario(SCENARIOS / name)
        blobs = set()
        for _ in range(2):
            rep, _ = cli.run_scenario(scn, command)
            blobs.add(cli.emit_report(rep, "json"))
            if scn.sweep is not None or command == "scan":
                blobs.add(b"csv:" + cli.emit_report(rep, "csv"))
        expected = 2 if (scn.sweep is not None or command == "scan") else 1
        assert len(blobs) == expected, f"{name}: nondeterministic output"
    report(11, f"{len(corpus)} corpus scenarios, JSON+CSV byte-identical across repeat runs")
