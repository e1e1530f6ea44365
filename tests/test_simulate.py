import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from airsnet import analytic as an
from airsnet import simulate
from airsnet.channel import (
    cascade_amplitude,
    sample_nakagami_power,
    snr_active_batch,
    snr_direct_batch,
    snr_passive_batch,
)
from airsnet.config import (
    ConfigError,
    ExperimentConfig,
    NetworkConfig,
    parse_config,
)
from airsnet.experiments import run_experiment
from airsnet.mathkit import integrate_interval_with_error
from airsnet.mixgamma import InvalidDistributionError, cascaded_power_dist
from airsnet.simulate import (
    _MODEL_BLOCK,
    _PHYSICAL_BLOCK,
    _Moments,
    associate,
    drop,
    model_snr_moment_mc,
    physical_snr_mc,
    simulate_cell,
)
from conftest import rel_err


def make_cfg(**kw):
    return replace(NetworkConfig(p_t=1.0, p_f=0.01, sigma2=1e-11, sigma_f2=1e-10), **kw)


def all_direct_cfg(**kw):
    # the ring is pushed to the rim, so in practice every user is BS-served
    return make_cfg(l_in=199.999997, l_out=199.999998, l=200.0, **kw)


def density_sweep(net, n_total, m_values, seed, **knobs):
    """The density-sweep experiment on `net`: its (rows, summary)."""
    rows, summary, _ = run_experiment(ExperimentConfig(
        network=net, experiment="density-sweep", seed=seed, n_total_elements=n_total,
        density_m_list=tuple(m_values), **knobs))
    return rows, summary


def density_cases(net, n_total, m_values, p_f_total):
    """The density sweep's split-budget cases: M reflectors of n_total / M elements."""
    return [(replace(net, m_irs=m, n_elements=n_total // m, p_f=p_f_total / m), "nearest")
            for m in m_values]


def one_drop(cfg, seed, index):
    """Drop `index` alone: (M, 2) reflectors and (K, 2) users."""
    irs, ue = drop(cfg, seed, index + 1)
    return irs[index], ue[index]


def keyed_stream(*key):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(list(key))))


def reference_cell(cfg, policy, n_drops, n_fading, seed):
    """simulate_cell built one drop at a time from the keyed streams.

    Reflectors come from the stream keyed (seed, M, 1) and users from the one
    keyed (seed, 5), each drop's radii then angles; each drop is then
    associated and its path gains taken with np.linalg.norm. Its fading is
    drawn element-major: on the stream keyed (seed, drop, 2) the BS-served
    users' (users, n_fading) powers, then the BI powers as N planes of
    (reflector-served users x n_fading) values; on the stream keyed
    (seed, drop, 6) the IU powers in the same shape. The element sums run
    down each column.
    """
    def points(rng, count, r_in, r_out):
        r = np.sqrt(r_in**2 + rng.random(count) * (r_out**2 - r_in**2))
        th = 2.0 * math.pi * rng.random(count)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    def norm(xy):
        return np.linalg.norm(xy, axis=1)

    rng_irs, rng_ue = keyed_stream(seed, cfg.m_irs, 1), keyed_stream(seed, 5)
    snr_drop, rate_ue = [], []
    for d in range(n_drops):
        irs = points(rng_irs, cfg.m_irs, cfg.l_in, cfg.l_out)
        ue = points(rng_ue, cfg.k_ues, 0.0, cfg.l)
        server = associate(irs, ue, policy, cfg)
        direct, relayed = server < 0, server >= 0
        rng = keyed_stream(seed, d, 2)
        pow_bu = sample_nakagami_power(cfg.m_bu, rng, (direct.sum(), n_fading))
        shape = (cfg.n_elements, relayed.sum() * n_fading)
        pow_bi = sample_nakagami_power(cfg.m_bi, rng, shape)
        pow_iu = sample_nakagami_power(cfg.m_iu, keyed_stream(seed, d, 6), shape)
        at = irs[server[relayed]]
        zeta_bi = np.repeat(cfg.path_gain(norm(at)), n_fading)
        zeta_iu = np.repeat(cfg.path_gain(norm(ue[relayed] - at)), n_fading)
        cascade = cascade_amplitude(pow_bi, pow_iu).sum(axis=0)
        snr = np.empty((2, cfg.k_ues, n_fading))
        snr[:, direct] = snr_direct_batch(pow_bu, cfg.path_gain(norm(ue[direct]))[:, None], cfg)
        rows = (relayed.sum(), n_fading)
        snr[0, relayed] = snr_active_batch(pow_bi.sum(axis=0), pow_iu.sum(axis=0), cascade,
                                           zeta_bi, zeta_iu, cfg).reshape(rows)
        snr[1, relayed] = snr_passive_batch(cascade, zeta_bi, zeta_iu, cfg).reshape(rows)
        per_user = snr.mean(axis=2)
        drop_mean = per_user.mean(axis=1)
        snr_drop.append((drop_mean, np.square(per_user - drop_mean[:, None]).sum(axis=1)))
        rate_ue.append(np.log2(1.0 + snr).mean(axis=2))
    out = {}
    n = n_drops * cfg.k_ues
    for i, (mode, rate) in enumerate(zip(("active", "passive"),
                                         np.concatenate(rate_ue, axis=1))):
        # the SNR mean and M2 over all users, merged from the per-drop ones
        drop_mean, drop_m2 = (np.array([moment[i] for moment in moments])
                              for moments in zip(*snr_drop))
        snr = drop_mean.mean()
        m2 = drop_m2.sum() + cfg.k_ues * np.square(drop_mean - snr).sum()
        out[mode] = {"snr_mean": (float(snr), float(math.sqrt(m2 / (n - 1) / n)))}
        for metric, scale in (("achievable_rate", 1.0), ("spatial_throughput", 1.0 / cfg.s_total)):
            se = rate.std(ddof=1) / math.sqrt(n)
            out[mode][metric] = (float(rate.mean() * scale), float(se * scale))
    return out


def reference_model_mc(cfg, d_bi, d_iu, n, seed):
    """model_snr_moment_mc of one group on its own stream, block by block.

    The per-group estimator the grouped one replaced: every group draws its
    own copy of the stream keyed (seed, 999, 3).
    """
    rng = keyed_stream(seed, 999, 3)
    v = an.cascade_scale(d_bi, d_iu, cfg)
    mix = cascaded_power_dist(cfg.m_bi, cfg.m_iu, 1.0, cfg.rule())
    m = cfg.m_iu
    noise_scale = an.averaged_amp_gain(d_bi, cfg) * cfg.sigma_f2
    kappa = cfg.sigma2 / noise_scale
    lo = min(kappa, 0.1)
    hi = 10.0 * max(1.0, m)
    log_range = math.log(hi / lo)
    log_norm = m * math.log(m) - math.lgamma(m)
    acc = _Moments()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, _MODEL_BLOCK):
            b = min(_MODEL_BLOCK, n - start)
            x1 = mix.sample(rng, b)
            pick = rng.random(b)
            bulk = np.flatnonzero(pick < 0.5)
            fade = np.flatnonzero((pick >= 0.5) & (pick < 0.75))
            bridge = np.flatnonzero(pick >= 0.75)
            g = np.empty(b)
            g[bulk] = rng.standard_gamma(m, bulk.size) / m
            u = rng.random(fade.size)
            g[fade] = kappa * u / (1.0 - u)
            g[bridge] = lo * np.exp(rng.uniform(0.0, log_range, bridge.size))
            pdf = np.log(g)
            pdf *= m - 1.0
            pdf -= m * g
            pdf += log_norm
            np.exp(pdf, out=pdf)
            mix_pdf = kappa / (g + kappa) / (g + kappa)
            np.add(mix_pdf, np.divide(1.0 / log_range, g), out=mix_pdf,
                   where=(g >= lo) & (g <= hi))
            mix_pdf *= 0.25
            mix_pdf += 0.5 * pdf
            snr = noise_scale * g
            snr += cfg.sigma2
            np.divide(cfg.p_t * x1, snr, out=snr)
            snr *= pdf
            snr /= mix_pdf
            acc.add(snr)
        return tuple(x / v for x in acc.mean_se())


def estimates(est):
    return {mode: {metric: (e.mean, e.std_error) for metric, e in per_mode.items()}
            for mode, per_mode in est.items()}


class TestDrop:
    def test_ring_radius_second_moment(self):
        cfg = make_cfg(m_irs=8)
        irs, _ = drop(cfg, 11, 2000)
        r2 = (irs**2).sum(axis=-1)
        expected = (cfg.l_in**2 + cfg.l_out**2) / 2.0
        assert abs(r2.mean() / expected - 1.0) < 0.005

    def test_ue_inside_coverage_fraction(self):
        cfg = make_cfg()
        _, ue = drop(cfg, 2, 400)
        radius = np.linalg.norm(ue, axis=-1)
        inside = int((radius < cfg.l_in).sum())
        total = radius.size
        p = cfg.l_in**2 / cfg.l**2
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(inside / total - p) < 3.0 * sigma

    def test_positions_within_bounds(self):
        cfg = make_cfg()
        irs, ue = drop(cfg, 5, 3)
        assert irs.shape == (3, cfg.m_irs, 2) and ue.shape == (3, cfg.k_ues, 2)
        irs_r = np.linalg.norm(irs, axis=-1)
        ue_r = np.linalg.norm(ue, axis=-1)
        assert np.all((irs_r >= cfg.l_in) & (irs_r <= cfg.l_out))
        assert np.all(ue_r <= cfg.l)

    def test_deterministic_per_index(self):
        cfg = make_cfg()
        a_irs, a_ue = drop(cfg, 9, 18)
        b_irs, b_ue = drop(cfg, 9, 18)
        assert np.array_equal(a_irs, b_irs)
        assert np.array_equal(a_ue, b_ue)
        assert not np.array_equal(a_ue[17], a_ue[16])

    @pytest.mark.parametrize("seed", [12345, 2**40 + 7])
    def test_stream_keys_are_pairwise_distinct(self, monkeypatch, seed):
        # every keyed stream simulate opens has one of six forms, and over
        # drop and reflector counts up to a few thousand no two of them start
        # alike: a key such as (seed, tag, M) would hand the M = 2 reflectors
        # drop 1's fading stream (seed, 1, 2)
        n = 3000
        forms = {(m, simulate._TAG_GEOMETRY) for m in range(1, n)}
        forms |= {(d, tag) for d in range(n)
                  for tag in (simulate._TAG_FADING, simulate._TAG_FADING_IU)}
        forms |= {(simulate._TAG_USERS,), (999, 3), (998, 4)}
        opened = []
        stream = simulate._stream

        def recorded(key_seed, *path):
            opened.append(path)
            return stream(key_seed, *path)

        monkeypatch.setattr(simulate, "_stream", recorded)
        cfg = make_cfg(k_ues=6)
        simulate_cell(density_cases(cfg, 16, [1, 4], 0.01), n_drops=3, n_fading=2, seed=seed)
        model_snr_moment_mc([(cfg, 100.0)], 30.0, n=10, seed=seed)
        physical_snr_mc([cfg], 100.0, 30.0, n=10, seed=seed)
        assert {(1, 1), (0, 2), (2, 6), (5,), (999, 3), (998, 4)} <= set(opened) <= forms
        starts = {tuple(stream(seed, *path).integers(0, 2**63, 2)) for path in forms}
        assert len(starts) == len(forms)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("path", [(), (5, 6), (2**32, 0), (2**40 + 7, 3)])
    def test_stream_state_is_the_seed_sequence_of_the_key(self, seed, path):
        # the state is the one SeedSequence([seed, *path]) gives, for seeds and
        # path entries of one to three uint32 words
        want = np.random.SFC64(np.random.SeedSequence([seed, *path])).state
        got = simulate._stream(seed, *path).bit_generator.state
        assert np.array_equal(got["state"]["state"], want["state"]["state"])

    @pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (40, 39)])
    def test_fewer_drops_are_a_prefix(self, n, k):
        cfg = make_cfg(m_irs=5, k_ues=9)
        irs, ue = drop(cfg, 31, n + 5)
        first_irs, first_ue = drop(cfg, 31, k)
        assert np.array_equal(irs[:k], first_irs)
        assert np.array_equal(ue[:k], first_ue)

    def test_users_shared_across_reflector_counts(self):
        # every M sees the same users; the reflectors are M's own
        users, reflectors = [], []
        for m, n in [(1, 512), (2, 256), (4, 128), (32, 16)]:
            irs, ue = drop(make_cfg(m_irs=m, n_elements=n), 12345, 20)
            users.append(ue)
            reflectors.append(irs[:, 0])
        for ue in users[1:]:
            assert np.array_equal(ue, users[0])
        for i, first in enumerate(reflectors):
            for other in reflectors[i + 1:]:
                assert not np.any(first == other)
        _, ue = drop(make_cfg(), 12346, 20)
        assert not np.any(ue == users[0])


class TestAssociate:
    def test_single_irs_policies_agree(self):
        cfg = make_cfg(m_irs=1)
        irs, ue = one_drop(cfg, 1, 0)
        near = associate(irs, ue, "nearest", cfg)
        best = associate(irs, ue, "best_irs", cfg)
        assert np.array_equal(near, best)

    def test_threshold_rule(self):
        cfg = make_cfg()
        irs = np.array([[115.0, 0.0]])
        ue = np.array([[cfg.l_in - 1e-6, 0.0], [cfg.l_in + 1e-6, 0.0]])
        for policy in ("nearest", "best_irs"):
            out = associate(irs, ue, policy, cfg)
            assert out[0] == -1
            assert out[1] == 0

    def test_constructed_case_where_nearest_is_not_best(self):
        # reflector B is nearer to the user but has a much longer BS hop;
        # the analytic mean SNR prefers reflector A
        cfg = make_cfg(m_irs=2, n_elements=16)
        irs = np.array([[100.0, 0.0], [130.0, 0.0]])
        ue = np.array([[116.0, 0.0]])
        near = associate(irs, ue, "nearest", cfg)
        best = associate(irs, ue, "best_irs", cfg)
        assert near[0] == 1
        assert best[0] == 0
        score_a = an.mean_snr_closed(100.0, 16.0, cfg)
        score_b = an.mean_snr_closed(130.0, 14.0, cfg)
        assert score_a > score_b

    def test_half_shape_fine_rule_scores_without_quadrature(self):
        # at m_IU = 0.5, glq_order = 64 and a large budget the per-node
        # quadrature of the mean SNR exhausts its panel budget for the user
        # 0.5 m from reflector 0; the closed form has no budget to exhaust
        cfg = make_cfg(m_irs=2, m_iu=0.5, glq_order=64, p_f=10.0)
        irs = np.array([[100.0, 0.0], [0.0, 120.0]])
        ue = np.array([[100.5, 0.0], [0.0, 130.0]])
        assert associate(irs, ue, "best_irs", cfg).tolist() == [0, 1]

    @pytest.mark.parametrize("m_iu", [2.0, 2.5])
    def test_best_irs_is_quadrature_argmax(self, m_iu):
        # oracle: the per-pair argmax of the independent per-node quadrature
        cfg = make_cfg(m_irs=6, n_elements=32, k_ues=12, m_iu=m_iu)
        for drop_index in (0, 1):
            irs, ue = one_drop(cfg, 404, drop_index)
            best = associate(irs, ue, "best_irs", cfg)
            d_bi = np.linalg.norm(irs, axis=1)
            outside = np.linalg.norm(ue, axis=1) >= cfg.l_in
            assert outside.any()
            for k in np.flatnonzero(outside):
                d_iu = np.linalg.norm(irs - ue[k], axis=1)
                scores = [an.mean_snr_integral(b, r, cfg) for b, r in zip(d_bi, d_iu)]
                assert best[k] == int(np.argmax(scores)), (drop_index, k)

    @pytest.mark.parametrize("policy", ["nearest", "best_irs"])
    def test_stacked_drops_match_per_drop_calls(self, policy):
        cfg = make_cfg(m_irs=6, n_elements=32, k_ues=12, m_iu=2.0)
        irs, ue = drop(cfg, 405, 5)
        stacked = associate(irs, ue, policy, cfg)
        assert stacked.shape == (5, 12)
        for g in range(5):
            assert np.array_equal(stacked[g], associate(irs[g], ue[g], policy, cfg)), g

    def test_partition_depends_only_on_radius(self):
        cfg = make_cfg()
        irs, ue = one_drop(cfg, 21, 0)
        radius = np.linalg.norm(ue, axis=1)
        for policy in ("nearest", "best_irs"):
            out = associate(irs, ue, policy, cfg)
            assert np.array_equal(out < 0, radius < cfg.l_in)

    def test_unknown_policy(self):
        cfg = make_cfg()
        irs, ue = one_drop(cfg, 0, 0)
        with pytest.raises(ConfigError):
            associate(irs, ue, "strongest", cfg)


class TestSimulateCell:
    def test_all_direct_matches_analytic(self):
        cfg = all_direct_cfg(k_ues=50)
        est = simulate_cell([(cfg, "nearest")], n_drops=100, n_fading=20, seed=31)[0]["active"]
        s_t = cfg.s_total
        analytic_rate = an.rate_direct(cfg.distance_floor, cfg) * math.pi / s_t
        analytic_rate += (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda d: np.array([an.rate_direct(x, cfg) for x in np.atleast_1d(d)]) * d,
                cfg.distance_floor,
                cfg.l,
                1e-8,
            )[0]
        )
        got = est["achievable_rate"]
        assert abs(got.mean - analytic_rate) <= 2.0 * got.std_error

    def test_fixed_geometry_converges_to_fixed_distance_mc(self):
        # one user, one reflector: the cell estimate must agree with the
        # dedicated fixed-distance physical MC at the same (d_BI, d_IU), and
        # its gap to the analytic mean is the known model-vs-physical gap
        cfg = make_cfg(m_irs=1, n_elements=16, k_ues=1)
        irs, ue = one_drop(cfg, 77, 0)
        assert associate(irs, ue, "nearest", cfg)[0] == 0
        d_bi = float(np.linalg.norm(irs[0]))
        d_iu = float(np.linalg.norm(ue[0] - irs[0]))
        est = simulate_cell([(cfg, "nearest")], n_drops=1, n_fading=200_000, seed=77)[0]["active"]
        ref_mean, ref_se = physical_snr_mc([cfg], d_bi, d_iu, n=400_000, seed=123)[0]["active"]
        got = est["snr_mean"].mean
        # n_fading draws at one position: SE of the per-user mean
        per_draw_se = ref_se * math.sqrt(400_000 / 200_000.0)
        assert abs(got - ref_mean) < 4.0 * math.hypot(ref_se, per_draw_se)
        model = an.mean_snr_closed(d_bi, d_iu, cfg)
        print(f"fixed-geometry gap: physical {got:.4g} vs analytic {model:.4g} "
              f"(ratio {got / model:.3e})")
        assert got / model > 1e3

    def test_doubling_drops_halves_variance(self):
        cfg = make_cfg(k_ues=20)
        e1 = simulate_cell([(cfg, "nearest")], n_drops=60, n_fading=4, seed=13)[0]["active"]
        e2 = simulate_cell([(cfg, "nearest")], n_drops=120, n_fading=4, seed=13)[0]["active"]
        ratio = e2["achievable_rate"].std_error ** 2 / e1["achievable_rate"].std_error ** 2
        assert 0.4 <= ratio <= 0.6

    @pytest.mark.parametrize("calls", [1, 2])
    def test_drop_path_bits_are_frozen(self, calls):
        # drop 1 holds two BS-served users, and best_irs moves six of the 22
        # reflector-served users off their nearest reflector; frozen from
        # reference_cell, which builds the drops one at a time. With calls = 2
        # every policy is simulated twice in a row, so a call that leaned on
        # state an earlier one left behind would show.
        cfg = make_cfg(l_in=60.0, l_out=150.0, m_irs=4, n_elements=8,
                       k_ues=8)
        frozen = {
            ("active", "nearest"): [
                (243.57765369289612, 161.0478923366749),
                (3.8292541519975174, 0.5266969036620908),
                (3.047223633227844e-05, 4.191320786450877e-06)],
            ("active", "best_irs"): [
                (243.1529858491639, 161.0753474157994),
                (3.691080537369189, 0.5462947017145784),
                (2.9372685643629786e-05, 4.347275108139383e-06)],
            ("passive", "nearest"): [
                (231.08908658980093, 161.78632651496366),
                (0.9208971560572025, 0.6373590793966454),
                (7.328266723288616e-06, 5.071942400523795e-06)],
            ("passive", "best_irs"): [
                (231.08908752118836, 161.7863264571221),
                (0.9208984997556645, 0.6373589949859821),
                (7.328277416101229e-06, 5.07194172880508e-06)],
        }
        for policy in ("nearest", "best_irs"):
            for _ in range(calls):
                est = simulate_cell([(cfg, policy)], n_drops=3, n_fading=4, seed=2025)[0]
                for irs_mode in ("active", "passive"):
                    got = [(est[irs_mode][k].mean, est[irs_mode][k].std_error)
                           for k in ("snr_mean", "achievable_rate", "spatial_throughput")]
                    assert got == frozen[irs_mode, policy], (irs_mode, policy)

    @pytest.mark.parametrize("calls", [1, 2])
    def test_grouped_drop_bits_are_frozen(self, calls):
        # 17 drops of 6 users at N = 256: 7 users are BS-served and best_irs
        # moves 22 of the others off their nearest reflector. Frozen from
        # reference_cell, which builds the drops one at a time (grouping is
        # test_chunked_drop_path_matches_one_drop_at_a_time's). calls = 2
        # repeats each policy's simulation back to back.
        cfg = make_cfg(l_in=60.0, l_out=150.0, m_irs=4, n_elements=256,
                       k_ues=6)
        n_drops, n_fading = 17, 3
        frozen = {
            ("active", "nearest"): [
                (501.77116462201377, 126.41566003013854),
                (7.4945028483558325, 0.19270234456174182),
                (5.9639358716606e-05, 1.5334765341199414e-06)],
            ("active", "best_irs"): [
                (495.81080686376686, 126.60389915948744),
                (7.376397989664716, 0.20144074223749572),
                (5.869951011341295e-05, 1.6030144933598894e-06)],
            ("passive", "nearest"): [
                (207.69007193225139, 124.35918192197677),
                (0.8034137401492979, 0.26631636253787044),
                (6.393363404635415e-06, 2.1192782762077668e-06)],
            ("passive", "best_irs"): [
                (207.69091114235607, 124.35916804566673),
                (0.804616325972377, 0.26628084557567466),
                (6.402933278547178e-06, 2.1189956412029137e-06)],
        }
        for policy in ("nearest", "best_irs"):
            for _ in range(calls):
                est = simulate_cell([(cfg, policy)], n_drops=n_drops, n_fading=n_fading,
                                    seed=31)[0]
                for irs_mode in ("active", "passive"):
                    got = [(est[irs_mode][k].mean, est[irs_mode][k].std_error)
                           for k in ("snr_mean", "achievable_rate", "spatial_throughput")]
                    assert got == frozen[irs_mode, policy], (irs_mode, policy)

    @pytest.mark.parametrize("block", [200, 1 << 14])
    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("policy", ["nearest", "best_irs"])
    def test_chunked_drop_path_matches_one_drop_at_a_time(self, monkeypatch, block, calls,
                                                          policy):
        # block 200 handles 17 drops in groups of 3, the last one short, each
        # associated in one chunk; block 2^14 handles them in one group. Each
        # of the `calls` back-to-back simulations must match the reference.
        monkeypatch.setattr(simulate, "_DROP_BLOCK", block)
        cfg = make_cfg(l_in=60.0, l_out=150.0, m_irs=4, n_elements=256,
                       k_ues=6)
        want = reference_cell(cfg, policy, 17, 3, 31)
        for _ in range(calls):
            est = simulate_cell([(cfg, policy)], n_drops=17, n_fading=3, seed=31)[0]
            assert estimates(est) == want

    @pytest.mark.parametrize("block, groups", [(600, 4), (1 << 15, 1)])
    def test_nearest_associates_once_per_drop_block(self, monkeypatch, block, groups):
        # the nearest association reads the reflectors (M) alone, so two N
        # share it; best_irs scores by each N's mean SNR and runs per case.
        # Block 600 handles 17 drops of 6 users x 18 element sums in groups of 5.
        monkeypatch.setattr(simulate, "_DROP_BLOCK", block)
        policies = []
        associate = simulate.associate
        monkeypatch.setattr(simulate, "associate", lambda irs, ue, policy, cfg: (
            policies.append(policy) or associate(irs, ue, policy, cfg)))
        cfg = make_cfg(m_irs=4, k_ues=6)
        cases = [(replace(cfg, n_elements=n), policy) for n in (16, 32)
                 for policy in ("best_irs", "nearest")]
        simulate_cell(cases, n_drops=17, n_fading=3, seed=31)
        assert (policies.count("nearest"), policies.count("best_irs")) == (groups, 2 * groups)

    def test_estimator_honesty_all_direct(self):
        cfg = all_direct_cfg(k_ues=25)
        s_t = cfg.s_total
        analytic_rate = an.rate_direct(cfg.distance_floor, cfg) * math.pi / s_t
        analytic_rate += (
            2.0
            * math.pi
            / s_t
            * integrate_interval_with_error(
                lambda d: np.array([an.rate_direct(x, cfg) for x in np.atleast_1d(d)]) * d,
                cfg.distance_floor,
                cfg.l,
                1e-8,
            )[0]
        )
        hits = 0
        trials = 20
        for s in range(trials):
            est = simulate_cell([(cfg, "nearest")], n_drops=12, n_fading=4,
                                seed=1000 + s)[0]["active"]
            got = est["achievable_rate"]
            if abs(got.mean - analytic_rate) <= 4.0 * got.std_error:
                hits += 1
        assert hits >= int(0.95 * trials)

    def test_passive_mode(self):
        cfg = make_cfg(k_ues=10)
        est = simulate_cell([(cfg, "nearest")], n_drops=4, n_fading=4, seed=8)[0]["passive"]
        assert est["snr_mean"].mean > 0
        assert est["spatial_throughput"].mean == pytest.approx(
            est["achievable_rate"].mean / cfg.s_total, rel=1e-12
        )


class TestSweepDensity:
    @staticmethod
    def assert_same(got, want, where):
        for mode in ("active", "passive"):
            for metric in ("snr_mean", "achievable_rate", "spatial_throughput"):
                assert ((got[mode][metric].mean, got[mode][metric].std_error)
                        == (want[mode][metric].mean, want[mode][metric].std_error)), (where, mode)
            assert np.array_equal(got[mode]["spatial_throughput"].samples,
                                  want[mode]["spatial_throughput"].samples)

    def test_m_one_row_matches_direct_call(self):
        # one fading draw per drop serves every case: under both budget
        # readings each density-sweep row is simulate_cell alone at that
        # (M, N, P_F), bit for bit; so is each case of a mixed list of two N,
        # both policies and a second M, samples included
        cfg = make_cfg(k_ues=10)
        m_values = [1, 2, 8]
        for budget in ("split-total", "fixed-per-irs"):
            rows, _ = density_sweep(cfg, 64, m_values, seed=6, p_f_total=0.01, sweep_n_drops=5,
                                    sweep_n_fading=2, density_power_budget=budget)
            got = {(r.swept_value, r.metric): (r.value, r.std_error) for r in rows}
            assert len(got) == len(rows) == 2 * 3 * len(m_values)
            for m in m_values:
                p_f = 0.01 / m if budget == "split-total" else 0.01
                swept = replace(cfg, m_irs=m, n_elements=64 // m, p_f=p_f)
                direct = simulate_cell([(swept, "nearest")], n_drops=5, n_fading=2, seed=6)[0]
                for mode, estimates in direct.items():
                    label = f"mode={mode}|m_irs={m}|n={64 // m}"
                    for metric, est in estimates.items():
                        assert got[label, metric] == (est.mean, est.std_error), (budget, label)
        cases = [(replace(cfg, m_irs=m, n_elements=n, p_f=p_f), policy)
                 for m, n, p_f in ((16, 32, 0.01), (4, 8, 0.02), (16, 8, 0.01))
                 for policy in ("best_irs", "nearest")]
        joint = simulate_cell(cases, n_drops=5, n_fading=2, seed=6)
        for case, got in zip(cases, joint):
            want = simulate_cell([case], n_drops=5, n_fading=2, seed=6)[0]
            self.assert_same(got, want, case)
        # best_irs moves some users off their nearest reflector
        assert not np.array_equal(joint[0]["active"]["spatial_throughput"].samples,
                                  joint[1]["active"]["spatial_throughput"].samples)

    def test_cases_differing_outside_the_free_fields_are_rejected(self):
        # both cores read case 0's fading shapes; a second m_iu would be scored
        # with the first one's fading. One change per kind of field: a shape,
        # a ring radius, a noise power and the user count.
        cfg = make_cfg(k_ues=10)
        for change in ({"m_iu": 2.0}, {"l_in": 90.0}, {"sigma2": 1e-12}, {"k_ues": 12}):
            other = replace(cfg, **change)
            with pytest.raises(ConfigError, match="^simulate_cell case 1 differs from case 0"):
                simulate_cell([(cfg, "nearest"), (other, "nearest")], n_drops=5, n_fading=2,
                              seed=1)
            with pytest.raises(ConfigError,
                               match="^physical_snr_mc layout 1 differs from layout 0"):
                physical_snr_mc([cfg, other], 100.0, 30.0, n=1000, seed=0)

    def test_bs_served_users_match_across_reflector_counts(self):
        # the users and their direct-link fading do not depend on M, so the
        # throughput samples of BS-served users agree row to row
        cfg = make_cfg(k_ues=10)
        rows = simulate_cell(density_cases(cfg, 64, [1, 4, 16], 0.01), n_drops=20, n_fading=2,
                             seed=6)
        _, ue = drop(cfg, 6, 20)
        inside = (np.linalg.norm(ue, axis=-1) < cfg.l_in).ravel()
        assert 0 < inside.sum() < inside.size
        for mode in ("active", "passive"):
            first = rows[0][mode]["spatial_throughput"]
            assert first.samples.shape == (200,)
            assert first.mean == pytest.approx(first.samples.mean(), rel=1e-12)
            for row in rows[1:]:
                samples = row[mode]["spatial_throughput"].samples
                assert np.array_equal(samples[inside], first.samples[inside])
                assert not np.any(samples[~inside] == first.samples[~inside])

    @staticmethod
    def density_error(n_total, m):
        """The ConfigError density-sweep raises, before any draw, for M = m."""
        cfg = parse_config(None, [f"density_m_list=[{m}]", f"n_total_elements={n_total}"],
                           experiment="density-sweep")
        with pytest.raises(ConfigError) as exc:
            run_experiment(cfg)
        return str(exc.value)

    def test_non_divisor_rejected_with_divisor_list(self):
        assert self.density_error(12, 5) == (
            "density_m_list [5] do not divide n_total_elements=12; "
            "valid divisors: [1, 2, 3, 4, 6, 12]")

    @pytest.mark.parametrize("n_total", [1, 2, 12, 36, 97, 360, 1024])
    def test_divisor_list_matches_a_full_scan(self, n_total):
        bad = next(m for m in range(2, n_total + 2) if n_total % m)
        divisors = [d for d in range(1, n_total + 1) if n_total % d == 0]
        assert self.density_error(n_total, bad).endswith(f"valid divisors: {divisors}")

    def test_divisors_of_a_large_budget_are_listed_quickly(self):
        # 10^9 = 2^9 * 5^9 has 100 divisors; a scan of 1..n would take minutes
        start = time.perf_counter()
        msg = self.density_error(10**9, 3)
        assert time.perf_counter() - start < 1.0
        assert re.search(r"valid divisors: \[1, 2, 4, 5, 8, .*, 1000000000\]$", msg)


class TestDensityFindings:
    def test_passive_centralized_dominates_with_separation(self):
        # sharpest-separation geometry found for the centralized-passive
        # claim; the M=1-vs-M=2 pair needs ~5e5 positions to clear 3 sigma
        net = make_cfg(l=200.0, l_in=30.0, l_out=150.0)
        m_values = [1, 2, 8, 32]
        _, summary = density_sweep(net, 512, m_values, seed=515, p_f_total=1e-5,
                                   sweep_n_drops=5000, sweep_n_fading=2)
        tps, ses = summary["passive"]["throughput"], summary["passive"]["std_error"]
        for other in range(1, len(tps)):
            z = (tps[0] - tps[other]) / math.hypot(ses[0], ses[other])
            assert z >= 3.0, (m_values[other], z)

    def test_fixed_per_reflector_budget_shows_interior_maximum(self):
        # when every reflector keeps its own amplification budget, spreading
        # elements pays off until per-reflector aperture starves: an interior
        # maximizer separated from both endpoints
        _, summary = density_sweep(make_cfg(), 512, [1, 4, 16, 64, 256, 512], seed=99,
                                   p_f_total=1e-5, sweep_n_drops=600, sweep_n_fading=2,
                                   density_power_budget="fixed-per-irs")
        tps, ses = summary["active"]["throughput"], summary["active"]["std_error"]
        best = max(range(len(tps)), key=lambda i: tps[i])
        assert 0 < best < len(tps) - 1

        def z_sep(i, j):
            return (tps[i] - tps[j]) / math.hypot(ses[i], ses[j])

        assert z_sep(best, 0) >= 3.0
        assert z_sep(best, len(tps) - 1) >= 3.0

    def test_unknown_power_budget_rejected(self):
        with pytest.raises(ConfigError, match="density_power_budget"):
            parse_config(None, ["density_power_budget=per-element"], experiment="density-sweep")


class TestModelMc:
    def test_importance_weights_unbiased_on_closed_form(self):
        cfg = make_cfg(n_elements=64)
        [(mc, se)] = model_snr_moment_mc([(cfg, 100.0)], 30.0, n=400_000, seed=3)
        closed = an.mean_snr_closed(100.0, 30.0, cfg)
        assert abs(mc - closed) < 3.0 * se
        assert se / closed < 0.02

    @pytest.mark.parametrize("sigma2", [1e-300, 1e-200])
    def test_importance_weights_unbiased_at_a_vanishing_noise_floor(self, sigma2):
        # kappa ~ 1e-289 and 1e-189: the proposal's kappa/(g+kappa)^2 term once
        # squared g+kappa, which underflows to 0 below ~1e-154 and weighted
        # those draws 0 (70 and 24 SE low)
        cfg = make_cfg(sigma2=sigma2)
        [(mc, se)] = model_snr_moment_mc([(cfg, 100.0)], 30.0, n=200_000, seed=7)
        closed = an.mean_snr_closed(100.0, 30.0, cfg)
        assert abs(mc - closed) < 3.0 * se

    @pytest.mark.parametrize("m_iu", [1.0, 2.0])
    def test_d_iu_array_rescales_one_estimate(self, m_iu):
        # one unit-mixture estimate divided by each d_IU's cascade scale v
        # must reproduce the per-point estimate, mean and standard error
        cfg = make_cfg(m_iu=m_iu, n_elements=64)
        d_iu = np.array([0.5, 10.0, 30.0, 60.0])
        n = _MODEL_BLOCK + 1000
        [(means, ses)] = model_snr_moment_mc([(cfg, 100.0)], d_iu, n=n, seed=4)
        assert means.shape == ses.shape == d_iu.shape
        for k, d in enumerate(d_iu):
            [(mean, se)] = model_snr_moment_mc([(cfg, 100.0)], float(d), n=n, seed=4)
            assert type(mean) is float and type(se) is float
            assert rel_err(means[k], mean) <= 1e-15
            assert rel_err(ses[k], se) <= 1e-15

    @pytest.mark.parametrize("d_iu", [30.0, np.array([0.5, 10.0, 60.0])],
                             ids=["scalar", "array"])
    def test_grouped_call_equals_each_group_alone(self, d_iu):
        # groups of one m_IU share draws and groups that differ only in N share
        # an estimate, yet each result is bit for bit the group's own estimate
        points = [(m_iu, n_el, d_bi, p_f) for m_iu in (1.0, 2.5) for n_el in (16, 64, 256)
                  for d_bi in (50.0, 100.0) for p_f in (1e-3, 0.1)]
        groups = [(make_cfg(m_iu=m_iu, n_elements=n_el, p_f=p_f), d_bi)
                  for m_iu, n_el, d_bi, p_f in points]
        n = _MODEL_BLOCK + 1000
        got = model_snr_moment_mc(groups, d_iu, n=n, seed=11)
        assert len(got) == len(groups)
        for (cfg, d_bi), (mean, se) in zip(groups, got):
            ref_mean, ref_se = reference_model_mc(cfg, d_bi, d_iu, n, 11)
            assert type(mean) is type(ref_mean)
            assert np.array_equal(mean, ref_mean) and np.array_equal(se, ref_se)

    def test_overflowing_group_is_named(self):
        # one group's importance-weighted SNR overflows; the others are fine
        fine = make_cfg()
        hot = make_cfg(p_t=1e300, p_f=0.1)
        with pytest.raises(InvalidDistributionError) as info:
            model_snr_moment_mc([(fine, 100.0), (hot, 50.0), (fine, 80.0)], 30.0, n=1000,
                                seed=0)
        assert str(info.value).startswith(
            "model_snr_moment_mc at m_bi=1, m_iu=1, glq_order=20, p_f=0.1 W, d_bi=50 m, "
            "d_iu=30 m: the estimate is not finite")

    def test_unsamplable_array_names_the_d_iu_group(self):
        # the path-gain product overflows, so the cascade scale v is 0
        with pytest.raises(InvalidDistributionError, match=r"d_bi=100 m, d_iu=\[10, 30, 60\] m"):
            model_snr_moment_mc([(make_cfg(epsilon_ref=1e200), 100.0)], np.array([10.0, 30.0, 60.0]),
                                n=1000, seed=0)

    def test_physical_mc_reads_smaller_surfaces_off_one_draw(self):
        # one joint call draws each block once, for the largest surface: that
        # layout equals a call with it alone, and the smaller one sums the
        # first 4 element planes of the same draw, BI planes then IU planes
        small, large = (make_cfg(m_iu=2.0, n_elements=n) for n in (4, 16))
        n = _PHYSICAL_BLOCK + 300
        joint = physical_snr_mc([small, large], 100.0, 30.0, n=n, seed=3)
        assert joint[1] == physical_snr_mc([large], 100.0, 30.0, n=n, seed=3)[0]
        rng = keyed_stream(3, 998, 4)
        zeta_bi, zeta_iu = small.path_gain(100.0), small.path_gain(30.0)
        want = {"active": _Moments(), "passive": _Moments()}
        for width in (_PHYSICAL_BLOCK, 300):
            pow_bi = sample_nakagami_power(small.m_bi, rng, (16, width))[:4]
            pow_iu = sample_nakagami_power(small.m_iu, rng, (16, width))[:4]
            cascade = cascade_amplitude(pow_bi, pow_iu).sum(axis=0)
            want["active"].add(snr_active_batch(pow_bi.sum(axis=0), pow_iu.sum(axis=0),
                                                cascade, zeta_bi, zeta_iu, small))
            want["passive"].add(snr_passive_batch(cascade, zeta_bi, zeta_iu, small))
        assert joint[0] == {mode: acc.mean_se() for mode, acc in want.items()}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_physical_mc_non_finite_error_is_named(self):
        # the active mean (7.9e152) is finite but its squared deviations overflow
        cfg = make_cfg(epsilon_ref=1e148, n_elements=16)
        with pytest.raises(InvalidDistributionError) as info:
            physical_snr_mc([cfg], 100.0, 30.0, n=20_000, seed=1)
        head, mean = str(info.value).split("(mean ")
        assert head == ("physical_snr_mc at m_bi=1, m_iu=1, glq_order=20, p_f=0.01 W, "
                        "d_bi=100 m, d_iu=30 m, n_elements=16: the active estimate is not "
                        "finite ")
        assert mean.endswith(", standard error inf)")
        assert 1e152 < float(mean.split(",")[0]) < 1e153

    def test_physical_mc_reproducible(self):
        cfg = make_cfg(n_elements=16)
        a = physical_snr_mc([cfg], 100.0, 30.0, n=50_000, seed=12)[0]
        b = physical_snr_mc([cfg], 100.0, 30.0, n=50_000, seed=12)[0]
        assert a == b


class TestMoments:
    CUTS = [0, 1, 2, 5, 100, 1000, 1001, 4096, 9000, 10_007]

    @pytest.mark.parametrize("offset, spread", [(3.0, 1.0), (1e8, 1.0), (1e-12, 1e-13)])
    def test_matches_numpy_over_uneven_blocks(self, offset, spread):
        x = offset + spread * np.random.default_rng(17).standard_normal(self.CUTS[-1])
        acc = _Moments()
        for lo, hi in zip(self.CUTS, self.CUTS[1:]):
            acc.add(x[lo:hi])
        mean, se = acc.mean_se()
        std = np.std(x, ddof=1)
        assert mean == pytest.approx(np.mean(x), rel=1e-12)
        assert se * math.sqrt(x.size) == pytest.approx(std, rel=1e-12)
        if offset == 1e8:
            # the sum-of-squares form E[x^2] - E[x]^2 loses every digit here
            naive = max(float((x * x).mean()) - float(x.mean()) ** 2, 0.0)
            assert abs(math.sqrt(naive) / std - 1.0) > 0.5

    def test_single_value_has_zero_error(self):
        acc = _Moments()
        acc.add(np.array([2.5]))
        assert acc.mean_se() == (2.5, 0.0)


class TestBlockBoundaries:
    @pytest.mark.parametrize("n", [1, 1000, 3 * _MODEL_BLOCK + 1])
    def test_model_mc_finite_and_reproducible(self, n):
        cfg = make_cfg(m_iu=2.0)
        [first] = model_snr_moment_mc([(cfg, 100.0)], 30.0, n=n, seed=5)
        assert all(math.isfinite(v) for v in first)
        assert model_snr_moment_mc([(cfg, 100.0)], 30.0, n=n, seed=5) == [first]

    @pytest.mark.parametrize("irs_mode", ["active", "passive"])
    @pytest.mark.parametrize("n", [1, 1000, 3 * _PHYSICAL_BLOCK + 1])
    def test_physical_mc_finite_and_reproducible(self, n, irs_mode):
        cfg = make_cfg(n_elements=16)
        first = physical_snr_mc([cfg], 100.0, 30.0, n=n, seed=9)[0][irs_mode]
        assert all(math.isfinite(v) for v in first)
        assert physical_snr_mc([cfg], 100.0, 30.0, n=n, seed=9)[0][irs_mode] == first
