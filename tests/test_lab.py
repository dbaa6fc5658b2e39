import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eaglass import lab
from eaglass.cli import main as cli_main
from eaglass.disorder import sample_couplings
from eaglass.errors import ConfigError, HardAssertionFailure, SampleError
from eaglass.lab import EXPERIMENT_KINDS, ExperimentConfig, run
from eaglass.lattice import build_box
from eaglass.solver import GspReport

PRESETS = sorted((Path(__file__).resolve().parents[1] / "presets").glob("*.json"))


def make(kind, **kw):
    base = dict(kind=kind, width=5, height=5, master_seed=12, samples=3)
    base.update(kw)
    return ExperimentConfig.from_dict(base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        make("solve", samples=0)
    with pytest.raises(ConfigError):
        make("no_such_kind")
    with pytest.raises(ConfigError):
        make("solve", width=99)
    with pytest.raises(ConfigError):
        make("solve", master_seed=2**63)   # the sampler packs it in 64 bits
    with pytest.raises(ConfigError):
        make("solve", dist={"kind": "uniform", "lo": 0.9, "hi": 1.1})
    with pytest.raises(ConfigError):
        make("two_bond_map", grid_points=5)
    with pytest.raises(ConfigError):
        make("wall_stats", n_list=[1], k_list=[1])  # k=0 row required
    with pytest.raises(ConfigError):
        make("wall_stats", n_list=[4], k_list=[0])  # segment too wide
    for n_list, k_list, proxy in (([-1, 1], [0], "excited_pair"),
                                  ([1], [0, -1], "excited_pair"),
                                  ([0], [0], "perturbed_exterior")):
        with pytest.raises(ConfigError):
            make("wall_stats", width=7, height=5, n_list=n_list,
                 k_list=k_list, proxy=proxy)
    for kind in ("property_suite", "two_bond_map"):
        with pytest.raises(ConfigError):
            make(kind, width=3, height=3, tol=-1.0)
    with pytest.raises(ConfigError):
        make("convergence", n_list=[])
    with pytest.raises(ConfigError):
        make("convergence", n_list=[2, 2])
    with pytest.raises(ConfigError):
        make("convergence", n_list=[1], window_width=9)
    with pytest.raises(ConfigError):
        make("uniqueness_probe", n_pairs=[])
    with pytest.raises(ConfigError):
        make("two_bond_map", width=3, height=3, edge="h:0,1", edge2="h:0,1")
    with pytest.raises(ConfigError):
        make("two_bond_map", width=3, height=3, edge="v:0,1")  # = edge2 default
    with pytest.raises(ConfigError):
        make("two_bond_map", width=3, height=3, edge2="h:5,0")  # not in box
    with pytest.raises(ConfigError):
        make("two_bond_map", width=1, height=3)  # default edge is horizontal
    with pytest.raises(ConfigError):
        make("flip_sweep", edge="h:9,0")
    with pytest.raises(ConfigError):
        make("flip_sweep", grid_points=1)   # no interval can hold the flip
    with pytest.raises(ConfigError):
        make("contour_stats")
    # a usage error is a config error, never a hard assertion failure's 2
    for argv in (["contour-stats"], ["solve", "--width", "x"],
                 ["uniqueness-probe", "--n-pairs", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 1, argv
    for probes in (0, -3):
        with pytest.raises(ConfigError):
            make("property_suite", probes=probes)
    with pytest.raises(ConfigError):
        make("wall_stats", width=7, height=7, proxy="excited_pair",
             n_list=[1], k_list=[0], edge="h:0,9")
    with pytest.raises(ConfigError):
        run(dict(kind="solve", width=3, height=3, subset_budget=0))
    with pytest.raises(ConfigError):
        run(dict(kind="solve", width=3, height=3, dual_budget=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "solve", "bogus_field": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "solve", "schema_version": 99})


# a config per kind that runs, and values on both sides of each bound for
# the fields the fuzz test replaces; boxes of at most 6x6 (ladders up to
# 5x5) keep a run within milliseconds
_FUZZ_BASES = {
    "solve": {},
    "flip_sweep": {},
    "two_bond_map": dict(width=3, height=3, grid_points=11),
    "wall_stats": dict(width=5, height=5, n_list=[1, 2], k_list=[0, 1]),
    "convergence": dict(n_list=[1, 2]),
    "uniqueness_probe": dict(n_pairs=[[1, 2]]),
    "property_suite": dict(probes=2),
}
_SMALL = st.integers(-1, 3)
_EDGE = st.tuples(st.sampled_from("hv"), st.integers(-3, 3), st.integers(-1, 5))
_FUZZ_FIELDS = {
    "width": st.integers(0, 6),
    "height": st.integers(1, 6),
    "master_seed": st.integers(0, 2**16),
    "edge": _EDGE,
    "edge2": _EDGE,
    "grid_lo": st.sampled_from([-3.0, 0.0, 1.0]),
    "grid_hi": st.sampled_from([-1.0, 0.5, 3.0]),
    "grid_points": st.sampled_from([1, 2, 10, 11, 13]),
    "window_width": _SMALL,
    "window_height": _SMALL,
    "n_list": st.lists(st.integers(-1, 2), min_size=1, max_size=3),
    "k_list": st.lists(_SMALL, min_size=1, max_size=3),
    "n_pairs": st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                        max_size=2),
    "proxy": st.sampled_from([*lab.PROXY_KINDS, "bogus"]),
    "band_height": st.one_of(st.none(), _SMALL),
    "probes": _SMALL,
    "subset_budget": _SMALL,
    "dual_budget": _SMALL,
    "tol": st.sampled_from([-1.0, 0.0, 1e-9, 1.0]),
}


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(EXPERIMENT_KINDS), st.data())
def test_fuzzed_configs_run_or_fail_with_a_reproducer(kind, data):
    # a config that validates must run, or fail its sample with a
    # reproducer; one that does not must be a config error
    fields = data.draw(st.lists(st.sampled_from(sorted(_FUZZ_FIELDS)),
                                max_size=3, unique=True))
    cfg = dict(dict(kind=kind, samples=1, width=4, height=4),
               **_FUZZ_BASES[kind])
    cfg.update({name: data.draw(_FUZZ_FIELDS[name]) for name in fields})
    try:
        parsed = ExperimentConfig.from_dict(cfg)
    except ConfigError:
        return
    try:
        report = run(parsed)
    except (HardAssertionFailure, SampleError) as e:
        assert json.loads(e.reproducer)["config"] == parsed.core_dict()
    else:
        assert len(report.records) == 1


def test_solve_deterministic_hash():
    cfg = dict(kind="solve", width=4, height=4, master_seed=3, samples=4)
    r1 = run(cfg)
    r2 = run(cfg)
    assert r1.content_hash == r2.content_hash
    assert len(r1.records) == 4


def test_parallelism_does_not_change_hash():
    base = dict(kind="property_suite", width=5, height=4, master_seed=21,
                samples=4, probes=1)
    h1 = run({**base, "parallel": 1}).content_hash
    h2 = run({**base, "parallel": 2}).content_hash
    assert h1 == h2


def test_pool_starts_no_more_workers_than_samples(monkeypatch):
    sizes = []

    class SerialPool:
        """Records its size and maps in-process, starting no worker."""
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    base = dict(kind="solve", width=3, height=3, master_seed=2, samples=3)
    hashes = {run({**base, "parallel": p}).content_hash for p in (1, 2, 16)}
    assert sizes == [2, 3]
    assert len(hashes) == 1


def test_flip_sweep_smoke():
    rep = run(dict(kind="flip_sweep", width=4, height=4, master_seed=5,
                   samples=3, grid_points=15))
    assert all(r["n_transitions"] == 1 for r in rep.records)


def test_two_bond_map_smoke():
    rep = run(dict(kind="two_bond_map", width=3, height=3, master_seed=5,
                   samples=3, grid_points=11))
    freqs = rep.aggregates["case_frequencies"]
    assert abs(sum(freqs.values()) - 1.0) < 1e-12
    assert rep.aggregates["grid_mismatches"] == 0
    assert rep.aggregates["max_consistency_err"] <= 1e-9


def test_height_two_boxes_run_with_default_edges():
    # vertical edges leave row 0 only, so the default edge is v:0,0
    for kind, width in (("flip_sweep", 3), ("flip_sweep", 4),
                        ("two_bond_map", 11)):
        rep = run(dict(kind=kind, width=width, height=2, master_seed=5,
                       samples=1, grid_points=11))
        assert len(rep.records) == 1


def test_two_bond_map_at_the_vertex_limit():
    # 22 vertices, the most validation accepts: 2^21 configurations for the
    # grid oracle
    rep = run(dict(kind="two_bond_map", width=11, height=2, edge2="v:0,0",
                   master_seed=5, samples=1, grid_points=11))
    assert rep.aggregates["grid_mismatches"] == 0


def test_wall_stats_all_proxies():
    for proxy in ("excited_pair", "nested_volumes", "perturbed_exterior"):
        rep = run(dict(kind="wall_stats", width=7, height=7, master_seed=8,
                       samples=4, proxy=proxy, n_list=[1, 2],
                       k_list=[0, 1]))
        names = {p["name"] for p in rep.properties}
        assert {"wall_bound", "no_double_tether", "subadditivity_2sigma"} <= names
        for r in rep.records:
            assert r["proxy"] == proxy
            assert set(r["counts"]) == {"1,0", "1,1", "2,0", "2,1"}


def test_perturbed_exterior_couplings_keep_their_bits(monkeypatch):
    # the perturbed couplings equal the full construction: a whole draw at
    # the offset index, with the band's window overwritten from the base
    # draw, at every legal band of a 9x9 box and for both laws
    seen, solve = [], lab.solve

    def capturing_solve(geom, J):
        seen.append(J)
        return solve(geom, J)

    monkeypatch.setattr(lab, "solve", capturing_solve)
    g = build_box(9, 9)
    for dist in ({"kind": "gaussian", "sigma": 1.3},
                 {"kind": "uniform_symmetric", "half_width": 0.7}):
        for band in range(1, 8):
            cfg = ExperimentConfig.from_dict(dict(
                kind="wall_stats", width=9, height=9, master_seed=-12,
                proxy="perturbed_exterior", band_height=band, n_list=[1],
                k_list=[0], dist=dist))
            seen.clear()
            lab.proxy_perturbed_exterior(cfg, 5)
            j_base, j_pert = seen
            base = sample_couplings(g, cfg.dist, -12, 5).values
            vals = sample_couplings(g, cfg.dist, -12,
                                    5 + lab._ALT_SAMPLE_OFFSET).values.copy()
            window = g.entry_row <= band
            vals[window] = base[window]
            assert j_base.values.tobytes() == base.tobytes()
            assert j_pert.values.tobytes() == vals.tobytes()


def test_convergence_report(tmp_path):
    out = tmp_path / "conv"
    rep = run(dict(kind="convergence", n_list=[1, 2, 3], window_width=3,
                   window_height=2, master_seed=4, samples=6, out=str(out)))
    assert not rep.aggregates["insufficient_levels"]
    assert len(rep.aggregates["pairs"]) == 2
    summary = json.loads((tmp_path / "conv.summary.json").read_text())
    assert summary == rep.summary_dict()
    lines = (tmp_path / "conv.records.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6
    assert [json.loads(l)["sample"] for l in lines] == list(range(6))


def test_convergence_single_level_flagged():
    rep = run(dict(kind="convergence", n_list=[2], window_width=3,
                   window_height=2, master_seed=4, samples=2))
    assert rep.aggregates["insufficient_levels"]
    assert rep.aggregates["pairs"] == []


def test_uniqueness_probe_trend_table():
    rep = run(dict(kind="uniqueness_probe", n_pairs=[[2, 2], [1, 2]],
                   window_width=3, window_height=2, master_seed=4, samples=5))
    pairs = {(p["n_lo"], p["n_hi"]): p for p in rep.aggregates["pairs"]}
    assert pairs[(2, 2)]["disagreements"] == 0
    # disagreement records carry the offending window edges
    for r in rep.records:
        for entry in r["pairs"]:
            if not entry["agree"]:
                assert entry["disagreeing_edges"]


def test_property_suite_smoke():
    rep = run(dict(kind="property_suite", width=5, height=4, master_seed=17,
                   samples=3, probes=1))
    assert all(p["passed"] for p in rep.properties)
    assert rep.aggregates["all_properties_pass"]


def test_hard_failure_carries_reproducer(monkeypatch):
    import eaglass.lab as lab

    def boom(cfg, i):
        from eaglass.lab import _hard
        _hard(False, "synthetic failure")

    monkeypatch.setitem(lab._KINDS, "solve",
                        lab._KINDS["solve"]._replace(sample=boom))
    with pytest.raises(HardAssertionFailure) as exc_info:
        run(dict(kind="solve", width=3, height=3, samples=2, master_seed=1))
    rep = json.loads(exc_info.value.reproducer)
    assert rep["sample"] == 0
    assert rep["config"]["kind"] == "solve"


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("raised", [HardAssertionFailure, SampleError],
                         ids=["hard", "internal"])
def test_the_lowest_failing_sample_raises_at_any_parallelism(
        monkeypatch, parallel, raised):
    # samples 1 and 3 fail inside the solve body: its own hard assertion
    # sees a failed verification, or the verifier raises
    d = dict(kind="solve", width=3, height=3, master_seed=1, samples=5)
    cfg = ExperimentConfig.from_dict(d)
    failing = {sample_couplings(build_box(3, 3), cfg.dist, 1, i)
               .values.tobytes() for i in (1, 3)}
    verify_gsp = lab.verify_gsp

    def verify(J, gsp, *budgets):
        if J.values.tobytes() not in failing:
            return verify_gsp(J, gsp, *budgets)
        if raised is SampleError:
            raise RuntimeError("synthetic failure")
        return GspReport(0, 0, violations=("synthetic",))

    monkeypatch.setattr(lab, "verify_gsp", verify)
    with pytest.raises(raised) as exc_info:
        run(dict(d, parallel=parallel))
    e = exc_info.value
    assert type(e) is raised
    if raised is HardAssertionFailure:
        assert str(e) == "sample 1: ground state fails finite-volume " \
                         "verification"
    else:
        assert str(e).startswith("sample 1: Traceback")
        assert "RuntimeError: synthetic failure" in str(e)
    rep = json.loads(e.reproducer)
    assert rep["sample"] == 1
    assert rep["config"] == cfg.core_dict()


def test_a_serial_run_stops_at_its_first_failure(monkeypatch):
    calls = []

    def counting(cfg, i):
        calls.append(i)
        lab._hard(i != 1, "synthetic failure")
        return {"sample": i, "energy": 0.0}

    monkeypatch.setitem(lab._KINDS, "solve",
                        lab._KINDS["solve"]._replace(sample=counting))
    with pytest.raises(HardAssertionFailure, match="^sample 1: "):
        run(dict(kind="solve", width=3, height=3, master_seed=1, samples=5))
    assert calls == [0, 1]


def test_a_serial_run_loads_no_process_pool():
    # every serial run, the benchmark's too, would otherwise pay for
    # multiprocessing's imports
    src = str(Path(lab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = ("import sys, eaglass.cli, eaglass.lab\n"
             "eaglass.lab.run(dict(kind='solve', width=3, height=3))\n"
             "print(sorted({'multiprocessing', 'concurrent.futures'}"
             " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", child], text=True,
                          capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_contour_missing_the_flipped_edge_is_a_hard_failure(monkeypatch):
    from eaglass import walls as wl
    monkeypatch.setattr(lab.exc, "critical_contour",
                        lambda J, b: wl.Interface(J.geom, frozenset()))
    with pytest.raises(HardAssertionFailure,
                       match="misses the flipped edge") as exc_info:
        run(dict(kind="wall_stats", width=7, height=7, master_seed=3,
                 samples=2, proxy="excited_pair", n_list=[1], k_list=[0]))
    rep = json.loads(exc_info.value.reproducer)
    assert rep["sample"] == 0
    assert rep["config"]["proxy"] == "excited_pair"


def test_cli_solve_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "run1"
    code = cli_main(["solve", "--width", "3", "--height", "3", "--samples",
                     "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n_samples"] == 2
    assert printed["summary_path"] == str(tmp_path / "run1.summary.json")
    summary = json.loads((tmp_path / "run1.summary.json").read_text())
    for key in ("kind", "n_samples", "content_hash", "properties"):
        assert summary[key] == printed[key]

    code = cli_main(["solve", "--samples", "0"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "conf.json"
    cfg_path.write_text(json.dumps(
        {"kind": "solve", "width": 3, "height": 3, "samples": 4,
         "master_seed": 9}))
    code = cli_main(["solve", "--config", str(cfg_path), "--samples", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 2
    # config file for a different kind is rejected
    code = cli_main(["flip-sweep", "--config", str(cfg_path)])
    assert code == 1
    capsys.readouterr()


# config values of the wrong JSON type; each must be a config error, never
# a traceback, a failing sample, or a silently truncated value
MALFORMED = [
    (dict(kind="solve", width="7"), "width-str"),
    (dict(kind="solve", dist={"kind": "gaussian", "sigma": "1"}), "sigma-str"),
    (dict(kind="uniqueness_probe", n_pairs=[[1, 2, 3]]), "n_pairs-triple"),
    (dict(kind="convergence", n_list=["x"]), "n_list-str"),
    (dict(kind="solve", samples=2.5), "samples-float"),
    (dict(kind="solve", parallel=1.5), "parallel-float"),
    (dict(kind="solve", width=3.0), "width-float"),
    (dict(kind="solve", width=True), "width-bool"),
    (dict(kind="solve", master_seed=1.5), "master_seed-float"),
    (dict(kind="property_suite", probes=1.5), "probes-float"),
    (dict(kind="flip_sweep", tol="x"), "tol-str"),
    (dict(kind="two_bond_map", width=3, height=3, grid_points=11.5),
     "grid_points-float"),
    (dict(kind="two_bond_map", width=3, height=3, grid_hi=math.inf),
     "grid_hi-inf"),
    (dict(kind="solve", dist={"kind": "gaussian", "sigma": math.inf}),
     "sigma-inf"),
    (dict(kind="two_bond_map", width=3, height=3, tol=math.nan), "tol-nan"),
    (dict(kind="convergence", n_list=[1.7, 2]), "n_list-float"),
    (dict(kind="flip_sweep", edge=["v", 0.9, 1]), "edge-float"),
    (dict(kind="solve", subset_budget=2.5), "subset_budget-float"),
]


@pytest.mark.parametrize("cfg", [c for c, _ in MALFORMED],
                         ids=[name for _, name in MALFORMED])
def test_malformed_config_values_are_config_errors(cfg, tmp_path, capsys):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))    # inf and nan as Infinity and NaN
    flag = cfg["kind"].replace("_", "-")
    assert cli_main([flag, "--config", str(path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_unreadable_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "solve",')
    for name in ("bad.json", "missing.json"):
        assert cli_main(["solve", "--config", str(tmp_path / name)]) == 1
        assert "config error:" in capsys.readouterr().err


def test_config_values_keep_their_type():
    cfg = ExperimentConfig.from_dict(dict(kind="two_bond_map", width=3,
                                          height=3, grid_lo=-3, grid_hi=3.0))
    assert type(cfg.grid_lo) is int and type(cfg.grid_hi) is float
    assert cfg.core_dict()["grid_lo"] == -3


def test_one_experiment_hashes_the_same_however_it_is_built(monkeypatch):
    # the constructor brings string, tuple and list edges and list-valued
    # fields to one form, so a config built directly compares, hashes and
    # replays as the same config read from a dict does
    d = dict(kind="two_bond_map", width=3, height=3, grid_points=11,
             samples=2, n_list=(1, 2), edge="h:0,1", edge2="v:-1,0")
    built = [ExperimentConfig(**d),
             ExperimentConfig(**dict(d, edge=("h", 0, 1),
                                     edge2=("v", -1, 0))),
             ExperimentConfig(**dict(d, edge=["h", 0, 1], edge2=["v", -1, 0],
                                     n_list=[1, 2]))]
    parsed = ExperimentConfig.from_dict(dict(d, n_list=[1, 2]))
    assert all(cfg == parsed for cfg in built)
    assert all(cfg.core_dict() == parsed.core_dict() for cfg in built)
    digest = run(dict(d, n_list=[1, 2])).content_hash
    assert all(run(cfg).content_hash == digest for cfg in built)

    def boom(cfg, i):
        lab._hard(False, "synthetic failure")

    monkeypatch.setitem(lab._KINDS, "two_bond_map",
                        lab._KINDS["two_bond_map"]._replace(sample=boom))
    with pytest.raises(HardAssertionFailure) as exc_info:
        run(built[0])
    replayed = json.loads(exc_info.value.reproducer)["config"]
    assert ExperimentConfig.from_dict(replayed).core_dict() == \
        parsed.core_dict()


def test_every_config_field_has_a_type_check():
    checked = {name for _, _, names in lab._FIELD_TYPES for name in names}
    assert checked | {"edge", "edge2"} == set(
        ExperimentConfig.__dataclass_fields__)


def test_presets_cover_the_experiments():
    assert {p.stem for p in PRESETS} == set(EXPERIMENT_KINDS) - {"solve"}


@pytest.mark.parametrize("path", PRESETS, ids=[p.stem for p in PRESETS])
def test_preset_runs(path, tmp_path, capsys):
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert cfg.kind == path.stem
    code = cli_main([path.stem.replace("_", "-"), "--config", str(path),
                     "--samples", "1", "--out", str(tmp_path / "run")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 1


def test_cli_env_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EAGLASS_OUT", str(tmp_path))
    monkeypatch.setenv("EAGLASS_PARALLEL", "1")
    code = cli_main(["solve", "--width", "3", "--height", "3",
                     "--samples", "1", "--seed", "2"])
    assert code == 0
    assert (tmp_path / "solve.summary.json").exists()
    capsys.readouterr()


def test_cli_missing_output_directory_fails_before_any_sample(
        tmp_path, capsys, monkeypatch):
    import eaglass.lab as lab
    calls, solve_sample = [], lab._KINDS["solve"].sample

    def counting(cfg, i):
        calls.append(i)
        return solve_sample(cfg, i)

    monkeypatch.setitem(lab._KINDS, "solve",
                        lab._KINDS["solve"]._replace(sample=counting))
    args = ["solve", "--width", "3", "--height", "3", "--samples", "2"]
    code = cli_main(args + ["--out", str(tmp_path / "missing" / "x")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert calls == []
    # a report path that is a directory is one line and exit 1 as well,
    # before any sample and with the other report neither made nor changed
    (tmp_path / "x.records.jsonl").mkdir()
    (tmp_path / "x.summary.json").write_text("old\n")
    code = cli_main(args + ["--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "x.records.jsonl" in err
    assert calls == []
    assert (tmp_path / "x.summary.json").read_text() == "old\n"
    (tmp_path / "y.summary.json").mkdir()
    assert cli_main(args + ["--out", str(tmp_path / "y")]) == 1
    assert "y.summary.json" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "y.records.jsonl").exists()


# every flag whose value goes to a config field of the same name
FIELD_FLAGS = [
    (["--seed", "5"], "master_seed", 5),
    (["--samples", "3"], "samples", 3),
    (["--out", "runs/x"], "out", "runs/x"),
    (["--parallel", "2"], "parallel", 2),
    (["--width", "5"], "width", 5),
    (["--height", "4"], "height", 4),
    (["--edge", "h:0,1"], "edge", "h:0,1"),
    (["--edge2", "v:1,0"], "edge2", "v:1,0"),
    (["--grid-lo", "-1.5"], "grid_lo", -1.5),
    (["--grid-hi", "2.5"], "grid_hi", 2.5),
    (["--grid-points", "13"], "grid_points", 13),
    (["--n-list", "1,2"], "n_list", [1, 2]),
    (["--k-list", "0,1"], "k_list", [0, 1]),
    (["--n-pairs", "2:3,3:4"], "n_pairs", [[2, 3], [3, 4]]),
    (["--proxy", "nested_volumes"], "proxy", "nested_volumes"),
    (["--band-height", "2"], "band_height", 2),
    (["--probes", "4"], "probes", 4),
    (["--tol", "1e-6"], "tol", 1e-6),
]


@pytest.mark.parametrize("flag, key, value", FIELD_FLAGS,
                         ids=[key for _, key, _ in FIELD_FLAGS])
def test_each_field_flag_sets_its_key(flag, key, value, monkeypatch):
    from eaglass.cli import _config_from_args, build_parser
    monkeypatch.delenv("EAGLASS_OUT", raising=False)
    monkeypatch.delenv("EAGLASS_PARALLEL", raising=False)
    args = build_parser().parse_args(["wall-stats", *flag])
    assert _config_from_args(args) == {"kind": "wall_stats", key: value}


def test_field_flags_cover_every_flag_named_like_a_field():
    from eaglass.cli import build_parser
    args = build_parser().parse_args(["solve"])
    dests = set(vars(args)) & set(ExperimentConfig.__dataclass_fields__)
    assert dests - {"dist"} == {key for _, key, _ in FIELD_FLAGS}


def test_box_n_applies_before_width_and_height():
    from eaglass.cli import _config_from_args, build_parser
    args = build_parser().parse_args(["solve", "--box-n", "2", "--width", "3"])
    cfg = _config_from_args(args)
    assert (cfg["width"], cfg["height"]) == (3, 5)


def test_cli_hard_failure_exit_code(tmp_path, capsys, monkeypatch):
    import eaglass.lab as lab

    def boom(cfg, i):
        lab._hard(False, "synthetic failure")

    monkeypatch.setitem(lab._KINDS, "solve",
                        lab._KINDS["solve"]._replace(sample=boom))
    code = cli_main(["solve", "--width", "3", "--height", "3", "--samples", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "REPRODUCER" in err


@pytest.mark.parametrize("error", [RuntimeError, ConfigError],
                         ids=lambda e: e.__name__)
def test_cli_internal_error_exit_code(error, capsys, monkeypatch):
    # any exception inside a sample, a ConfigError too, is an internal
    # error of that sample that carries a reproducer
    import eaglass.lab as lab

    def boom(cfg, i):
        raise error("synthetic internal error")

    monkeypatch.setitem(lab._KINDS, "solve",
                        lab._KINDS["solve"]._replace(sample=boom))
    code = cli_main(["solve", "--width", "3", "--height", "3", "--samples",
                     "2", "--seed", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{error.__name__}: synthetic internal error" in err
    line, = [ln for ln in err.splitlines() if ln.startswith("REPRODUCER ")]
    rep = json.loads(line[len("REPRODUCER "):])
    assert rep["seed"] == 4 and rep["sample"] == 0
    assert rep["config"]["kind"] == "solve"


def _sample_returning(monkeypatch, record):
    """Make every solve sample return ``record(i)`` for its index i."""
    monkeypatch.setitem(lab._KINDS, "solve", lab._KINDS["solve"]._replace(
        sample=lambda cfg, i: record(i)))


def test_records_pass_through_the_json_codec(monkeypatch, capsys):
    # numpy values and tuples in a record read as their plain-Python twin,
    # and a value JSON cannot hold fails its own sample with a reproducer
    cfg = dict(kind="solve", width=3, height=3, samples=2, master_seed=4)
    twins = [
        lambda i: {"sample": np.int64(i), "energy": np.float64(i / 3),
                   "tied": np.bool_(i), "signs": np.array([1, -1], np.int8),
                   "pair": (np.int32(i), (0.25, np.float32(0.5))),
                   "grid": {"1,0": np.arange(3.0).reshape(1, 3)}},
        lambda i: {"sample": i, "energy": i / 3, "tied": bool(i),
                   "signs": [1, -1], "pair": (i, (0.25, 0.5)),
                   "grid": {"1,0": [[0.0, 1.0, 2.0]]}}]
    reports = []
    for record in twins:
        _sample_returning(monkeypatch, record)
        reports.append(run(cfg))
    assert reports[0].records == reports[1].records == [
        {"sample": i, "energy": i / 3, "tied": bool(i), "signs": [1, -1],
         "pair": [i, [0.25, 0.5]], "grid": {"1,0": [[0.0, 1.0, 2.0]]}}
        for i in range(2)]
    assert [type(v) for v in reports[0].records[1].values()] == [
        int, float, bool, list, list, dict]
    assert reports[0].content_hash == reports[1].content_hash

    for bad in (math.nan, -math.inf, {1, 2}):
        _sample_returning(monkeypatch,
                          lambda i, bad=bad: {"sample": i, "energy": 0.0,
                                              "extra": [bad]})
        with pytest.raises(SampleError, match="JSON") as exc_info:
            run(cfg)
        assert not isinstance(exc_info.value, HardAssertionFailure)
        rep = json.loads(exc_info.value.reproducer)
        assert (rep["seed"], rep["sample"]) == (4, 0)
        assert ExperimentConfig.from_dict(rep["config"]).core_dict() == \
            ExperimentConfig.from_dict(cfg).core_dict()
        code = cli_main(["solve", "--width", "3", "--height", "3",
                         "--samples", "2", "--seed", "4"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: sample 0")
        line, = [ln for ln in err.splitlines() if ln.startswith("REPRODUCER ")]
        assert json.loads(line[len("REPRODUCER "):]) == rep


# a law's parameter that it does not read is a config error, whether it
# comes from a flag, a config file, or both merged
MISREAD_LAWS = [
    (["--half-width", "0.5"], None),
    (["--dist", "uniform_symmetric", "--sigma", "4"], None),
    (["--dist", "gaussian"], {"kind": "uniform_symmetric", "half_width": 0.5}),
    ([], {"kind": "gaussian", "sigma": 2.0, "half_width": 0.5}),
]


@pytest.mark.parametrize("flags, dist", MISREAD_LAWS,
                         ids=["half-width", "sigma", "merged", "file"])
def test_cli_rejects_a_parameter_the_law_does_not_read(
        flags, dist, tmp_path, capsys):
    args = ["solve", "--width", "3", "--height", "3", "--samples", "2"]
    if dist is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"kind": "solve", "dist": dist}))
        args += ["--config", str(path)]
    assert cli_main(args + flags) == 1
    assert capsys.readouterr().err.startswith("config error")


def test_golden_content_hash_of_the_uniform_law():
    cfg = dict(kind="solve", width=3, height=3,
               dist={"kind": "uniform_symmetric", "half_width": 0.5})
    assert run(dict(cfg, samples=3, master_seed=7)).content_hash == (
        "72e8018c5e1bf4977fe1677fef9065cff94c8b5a1fb6545f810b09124f7b5342")


# content hashes of one small config per kind (samples=3, master_seed=7);
# any change to these means a report is no longer reproducible
GOLDEN = [
    (dict(kind="solve", width=3, height=3),
     "2b8a69a224907bc5415a16b3860ca436402a59fd0f41ee61e7d5ac2d0f663c23"),
    (dict(kind="flip_sweep", width=3, height=3, grid_points=11),
     "4549f246a9f4accd12b90d941555daf24d5cf4b9ff148abb44bb867a75f40162"),
    (dict(kind="two_bond_map", width=3, height=3, grid_points=11),
     "4dd8896ba97d4947f13e9665cd783e61c6192b3712bd01ca5636807fd70b37fb"),
    (dict(kind="wall_stats", width=7, height=7, proxy="excited_pair",
          n_list=[1, 2], k_list=[0, 1]),
     "0158d78fbcdccd8dc30a9b9b9121cf4417c21350f18988493b9e7324d2a8df92"),
    (dict(kind="wall_stats", width=5, height=5, proxy="nested_volumes",
          n_list=[1], k_list=[0, 1]),
     "4b27c81b3565e60f2118a732ad603d5af7ef60e45d94e9d699eb8082babe1883"),
    (dict(kind="wall_stats", width=7, height=7, proxy="perturbed_exterior",
          n_list=[1, 2], k_list=[0, 1]),
     "42f3e063e7ee8281d3dc3ca675491ba498aa67081112031a0f5af5338bd2d8c4"),
    (dict(kind="convergence", n_list=[1, 2]),
     "e16fba78072c2f2e778e8f595ab35ceff64610998a8a743ea29723310cdf6ca6"),
    (dict(kind="uniqueness_probe", n_pairs=[[1, 2]]),
     "87cd35770cb8a3e476e71ab82c2202c05efad5528f12b560b94dd793c51515c5"),
    (dict(kind="property_suite", width=4, height=4, probes=2),
     "0a47f868f5d150dbcc9c5bd159c5306e41ce24a9306f1703ef67eb3174c2e1cc"),
]


@pytest.mark.parametrize("cfg,digest", GOLDEN,
                         ids=[f"{c['kind']}-{c.get('proxy', '')}".rstrip("-")
                              for c, _ in GOLDEN])
def test_golden_content_hash(cfg, digest):
    assert run(dict(cfg, samples=3, master_seed=7)).content_hash == digest


def test_golden_hashes_cover_every_kind():
    assert {cfg["kind"] for cfg, _ in GOLDEN} == set(EXPERIMENT_KINDS)
