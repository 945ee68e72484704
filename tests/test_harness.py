"""Configuration, generators, criterion registry, and the CLI contract."""

import json
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom import cli, harness
from sparsedom.cli import main
from sparsedom.geometry import Cube, GridId
from sparsedom.harness import (
    CRITERION_IDS,
    ExperimentConfig,
    GENERATOR_KINDS,
    Verdict,
    default_config,
    generate_function,
    run_criterion,
)
from sparsedom.rational import rat_str
from sparsedom.sparse import (
    SparseFamily,
    amalgam_adjoint,
    cz_sparse,
    sparse_operator,
    split_families,
)
from sparsedom.stepfn import Mesh, StepFunction, dyadic_maximal, hl_maximal

from meshtools import unflat

DATA = pathlib.Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.dim == 1
    assert cfg.lam == Fraction(1, 8)
    assert cfg.mesh().level == cfg.level


def test_config_lambda_default_tracks_dim():
    assert ExperimentConfig(dim=2, level=3).lam == Fraction(1, 16)


@pytest.mark.parametrize("kw", [
    dict(dim=3),
    dict(dim=1, level=15),
    dict(dim=2, level=8),
    dict(level=0),
    dict(trials=0),
    dict(lam=Fraction(0)),
    dict(lam=1),
    dict(kind="bogus"),
    dict(operator="cauchy"),
    dict(fmt="yaml"),
])
def test_config_rejects(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


def test_config_replaced_and_json():
    cfg = ExperimentConfig(level=4, seed=7)
    other = replace(cfg, seed=9)
    assert other.seed == 9 and other.level == 4 and cfg.seed == 7
    data = cfg.to_json()
    assert data["lam"] == "1/8"
    assert data["operator"] == "sparse"


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("dim,level", [(1, 4), (2, 2)])
def test_generator_deterministic_and_core_supported(kind, dim, level):
    mesh = Mesh(dim=dim, level=level)
    f = generate_function(123, kind, mesh)
    g = generate_function(123, kind, mesh)
    assert f.values == g.values
    core = mesh.core
    for i, v in enumerate(f.values):
        if v != 0:
            assert core.contains_box(mesh.cell_box(unflat(mesh, i)))


def test_generator_seeds_differ():
    mesh = Mesh(dim=1, level=5)
    assert (generate_function(0, "random-cells", mesh).values
            != generate_function(1, "random-cells", mesh).values)


def test_spike_is_single_cell():
    mesh = Mesh(dim=1, level=5)
    for seed in range(10):
        f = generate_function(seed, "spike", mesh)
        support = [v for v in f.values if v != 0]
        assert len(support) == 1
        assert 1 <= support[0] <= 8 and support[0].denominator == 1


def test_indicator_sums_values():
    mesh = Mesh(dim=1, level=6)
    for seed in range(10):
        f = generate_function(seed, "indicator-sums", mesh)
        assert all(v in (0, 1, 2, 3) for v in f.values)
        assert any(v != 0 for v in f.values)


def test_random_cells_range():
    mesh = Mesh(dim=1, level=5)
    f = generate_function(3, "random-cells", mesh)
    assert all(v.denominator == 1 and -8 <= v <= 8 for v in f.values)


def test_power_profile_eighths():
    mesh = Mesh(dim=1, level=5)
    for seed in range(6):
        f = generate_function(seed, "power-profile", mesh)
        assert all(v >= 0 and (8 * v).denominator == 1 for v in f.values)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generator_builds_the_integer_form(kind):
    f = generate_function(3, kind, Mesh(dim=1, level=5))
    assert "values" not in vars(f)
    assert f._num[1] == (8 if kind == "power-profile" else 1)


def test_generator_unknown_spec():
    with pytest.raises(ValueError):
        generate_function(0, "white-noise", Mesh(dim=1, level=3))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(GENERATOR_KINDS))
def test_generator_determinism_property(seed, kind):
    mesh = Mesh(dim=1, level=3)
    assert (generate_function(seed, kind, mesh).values
            == generate_function(seed, kind, mesh).values)


# ---------------------------------------------------------------------------
# registry and verdicts
# ---------------------------------------------------------------------------


def test_registry_lists_eleven():
    assert len(CRITERION_IDS) == 11
    assert CRITERION_IDS[0] == "cover-6x"


def test_registry_unknown_id():
    with pytest.raises(KeyError):
        run_criterion("prop-99")
    with pytest.raises(KeyError):
        default_config("0")


def test_numeric_aliases_map_in_order():
    for i, cid in enumerate(CRITERION_IDS):
        assert default_config(str(i + 1)) == default_config(cid)


def test_default_configs_within_caps():
    for cid in CRITERION_IDS:
        cfg = default_config(cid)
        assert cfg.level <= (14 if cfg.dim == 1 else 7)


def test_verdict_json_replayable():
    cfg = ExperimentConfig(trials=200, seed=17)
    a = run_criterion("cover-6x", cfg)
    b = run_criterion("cover-6x", cfg)
    assert isinstance(a, Verdict)
    assert a.to_json() == b.to_json()
    assert "elapsed" not in json.dumps(a.to_json())


def test_verdict_json_shape():
    v = run_criterion("cover-6x", ExperimentConfig(trials=50, seed=1))
    data = v.to_json()
    assert data["criterion"] == "cover-6x"
    assert set(data) == {"criterion", "passed", "measured", "config",
                         "witness"}
    json.dumps(data)  # serializable throughout


def test_verdict_passes_without_a_witness():
    cfg = ExperimentConfig()
    assert Verdict("cover-6x", {}, cfg).passed
    assert not Verdict("cover-6x", {}, cfg, witness={"trial": 0}).passed


def test_sparse_invariants_criterion_small():
    v = run_criterion("sparse-invariants",
                      ExperimentConfig(level=4, trials=3, seed=5))
    assert v.passed
    assert v.measured["min_pointwise_gap"] >= 0


def test_trial_seeds_derived_by_xor():
    # trial t of the decomposition criterion replays generate_function
    # with seed ^ t, so single-trial runs at shifted seeds reproduce the
    # multi-trial instances
    mesh = Mesh(dim=1, level=4)
    f_multi = generate_function(12 ^ 3, "power-profile", mesh)
    f_single = generate_function(15, "power-profile", mesh)
    assert f_multi.values == f_single.values


def sandwich_oracle(cfg, maximal):
    """Criterion 3's measurements and witness from per-cell Fractions."""
    mesh, n = cfg.mesh(), cfg.dim
    worst_g = worst_s = witness = None
    for t in range(cfg.trials):
        g = abs(generate_function(cfg.seed ^ t, cfg.kind, mesh))
        big = maximal(g).values
        dyadic = [dyadic_maximal(g, grid).values for grid in GridId.all_grids(n)]
        fams = [cz_sparse(g, grid) for grid in GridId.all_grids(n)]
        sparse = [sparse_operator(fam, g).values for fam in fams if not fam.is_empty]
        for i in range(mesh.size):
            gap_g = 6 ** n * sum(a[i] for a in dyadic) - big[i]
            gap_s = 2 * 12 ** n * sum(a[i] for a in sparse) - big[i]
            worst_g = gap_g if worst_g is None else min(worst_g, gap_g)
            worst_s = gap_s if worst_s is None else min(worst_s, gap_s)
            if (gap_g < 0 or gap_s < 0) and witness is None:
                witness = {"trial": t, "cell": i, "grid_gap": rat_str(gap_g),
                           "sparse_gap": rat_str(gap_s)}
    return {"min_grid_gap": float(worst_g), "min_sparse_gap": float(worst_s),
            "trials": cfg.trials}, witness


@pytest.mark.parametrize("dim, level", [(1, 6), (2, 3)], ids=["1d", "2d"])
def test_sandwich_gaps_match_the_per_cell_loop(dim, level, monkeypatch):
    cfg = replace(default_config("maximal-sandwich"), dim=dim, level=level,
                  trials=3)
    v = run_criterion("maximal-sandwich", cfg)
    assert (v.measured, v.witness) == sandwich_oracle(cfg, hl_maximal)
    assert v.passed

    # a maximal function raised far above the bounds on one cell
    spike = cfg.mesh().size // 2 + 3

    def raised(g):
        return hl_maximal(g) + StepFunction(g.mesh, [
            Fraction(10 ** 6, 7) if i == spike else 0 for i in range(g.mesh.size)])

    monkeypatch.setattr(harness, "hl_maximal", raised)
    v = run_criterion("maximal-sandwich", cfg)
    measured, witness = sandwich_oracle(cfg, raised)
    assert (v.measured, v.witness) == (measured, witness)
    assert witness["trial"] == 0 and witness["cell"] == spike
    assert Fraction(witness["grid_gap"]) < 0
    assert Fraction(witness["sparse_gap"]) < 0
    assert not v.passed


def display_oracle(cfg, adjoint):
    """Criterion 7's display checks and witness from per-cell Fractions."""
    mesh = cfg.mesh()
    checked, witness = 0, None
    for t in range(min(cfg.trials, 10)):
        f = abs(generate_function(cfg.seed ^ (701 + t), cfg.kind, mesh))
        fam = cz_sparse(f, GridId.standard(1))
        if fam.is_empty:
            continue
        sh = split_families(fam, 1)
        for alpha in GridId.all_grids(1):
            adj = adjoint(sh, alpha, f).values
            pairs = list(sh.family_of(alpha))
            for jq in range(4):
                q = Cube(alpha, 1, (jq,))
                atoms = range(*mesh.cells(q.box)[0].indices(mesh.size))
                if not atoms:
                    continue
                c = sum(f.atom_sum(qb.box) / cov.measure
                        for _, qb, cov in pairs if cov.box.contains_box(q.box))
                fq = StepFunction(mesh, [v if i in atoms else 0
                                         for i, v in enumerate(f.values)])
                adj_q = adjoint(sh, alpha, fq).values
                checked += 1
                for i in atoms:
                    if abs(adj[i] - c) > adj_q[i] and witness is None:
                        witness = {"trial": t, "cube": q.to_json(), "cell": i}
    return checked, witness


def test_display_gaps_match_the_per_cell_loop(monkeypatch):
    cfg = replace(default_config("adjoint-osc-growth"), trials=3)
    outputs = []

    def recorded(sh, alpha, f):
        outputs.append(amalgam_adjoint(sh, alpha, f))
        return outputs[-1]

    monkeypatch.setattr(harness, "amalgam_adjoint", recorded)
    v = run_criterion("adjoint-osc-growth", cfg)
    assert outputs and all("values" not in vars(out) for out in outputs)
    assert (v.measured["display_checks"], v.witness) == \
        display_oracle(cfg, amalgam_adjoint)

    # a halved adjoint breaks the display: the constant c stays whole
    def halved(sh, alpha, f):
        return amalgam_adjoint(sh, alpha, f) * Fraction(1, 2)

    monkeypatch.setattr(harness, "amalgam_adjoint", halved)
    v = run_criterion("adjoint-osc-growth", cfg)
    checked, witness = display_oracle(cfg, halved)
    assert witness is not None
    assert (v.measured["display_checks"], v.witness) == (checked, witness)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_cover_test_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("cover-test", "--trials", "300", "--seed", "3",
                   "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["measured"]["trials_1d"] == 300


def test_cli_decompose_json(capsys):
    code = run_cli("decompose", "--level", "4", "--seed", "9",
                   "--kind", "indicator-sums")
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    num, den = data["verify_gap"].split("/")
    assert int(num) >= 0 and int(den) >= 1
    assert data["config"]["kind"] == "indicator-sums"


@pytest.mark.parametrize("level", ["0", "-3"])
def test_cli_rejects_level_below_one(level, capsys):
    assert run_cli("decompose", "--level", level) == 2
    assert "level %s must lie in 1..14" % level in capsys.readouterr().err


def test_cli_cz_sparse_csv(capsys):
    code = run_cli("cz-sparse", "--level", "3", "--seed", "2",
                   "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("grids[0].") for line in lines[1:])


def test_cli_dominate_with_csv_input(tmp_path, capsys):
    mesh = Mesh(dim=1, level=3)
    cells = []
    for i in range(mesh.size):
        lo = mesh.cell_box((i,)).lo[0]
        cells.append("1" if Fraction(1, 4) <= lo < Fraction(3, 4) else "0")
    path = tmp_path / "f.csv"
    path.write_text(",".join(cells) + "\n")
    code = run_cli("dominate", "--level", "3", "--input", str(path))
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["domination"]["violations"] == 0
    assert data["domination"]["c"] > 0


def test_cli_input_wrong_length(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("1,2,3\n")
    assert run_cli("dominate", "--level", "3", "--input", str(path)) == 2


def test_cli_prints_exact_values_past_4096_bits_as_null(tmp_path, capsys):
    # (p+1)/p for four large prime powers: the pointwise gaps carry their
    # common denominator, far past Python's int-to-str digit limit
    primes = [3**3000, 5**2100, 7**1800, 11**1400]
    path = tmp_path / "big.csv"
    path.write_text(",".join(["%d/%d" % (p + 1, p) for p in primes]
                             + ["1", "2"]) + "\n")
    assert run_cli("cz-sparse", "--level", "1", "--input", str(path)) == 0
    grids = json.loads(capsys.readouterr().out)["grids"]
    assert [g["invariants"] for g in grids] == ["ok", "ok"]
    assert [g["pointwise_gap"] for g in grids] == [None, None]


def test_cli_cz_sparse_reports_no_gap_for_a_rejected_family(monkeypatch, capsys):
    # two equal cubes on one level overlap, so the standard grid's family
    # fails verify_sparse_family; its gap, which reads the nesting that the
    # check certifies, is not computed, and the shifted grid's still is
    std = GridId.standard(1)

    def doubled(f, grid):
        if grid != std:
            return cz_sparse(f, grid)
        q = Cube(grid, 0, (0,))
        return SparseFamily(grid, {0: [q, q]})

    monkeypatch.setattr(cli, "cz_sparse", doubled)
    assert run_cli("cz-sparse", "--level", "3", "--seed", "2") == 1
    grids = json.loads(capsys.readouterr().out)["grids"]
    got = [(g["grid"] == std.to_json(), g["invariants"], "pointwise_gap" in g)
           for g in grids]
    assert sorted(got) == [(False, "ok", True), (True, "level 0: cubes overlap", False)]


def test_cli_cz_sparse_past_the_lattice_scale_bound_exits_2(tmp_path, capsys):
    # 1 beside 2^-59: on the shifted grid the scale climb of cz_sparse
    # passes level - 61 (test_cz_sparse_stops_at_the_lattice_scale_bound)
    path = tmp_path / "tiny.csv"
    path.write_text("1,1/%d,0,0,0,0\n" % 2**59)
    assert run_cli("cz-sparse", "--level", "1", "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert "past level - 61 = -60" in err and "Traceback" not in err


def test_cli_zero_denominator_flag_exits_2(capsys):
    assert run_cli("osc-estimate", "--level", "3", "--lambda", "1/0") == 2
    err = capsys.readouterr().err
    assert "zero denominator in '1/0'" in err and "Traceback" not in err


@pytest.mark.parametrize("cid", ["weak11-growth", "adjoint-osc-growth"])
def test_cli_m_below_one_exits_2(cid, tmp_path, capsys):
    # criteria 6 and 7 divide by m; by flag or by config file, m = 0 is a
    # usage error before any trial runs
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("m = 1,0\n")
    for args in (["--m", "0"], ["--config", str(cfg)]):
        assert run_cli("acceptance", "--id", cid, *args) == 2
        err = capsys.readouterr().err
        assert "m values must be at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize("field, message", [
    ("1/0", "zero denominator in '1/0'"),
    # 10**999999999 would take Fraction minutes to build
    ("1e999999999", "decimal exponent out of range in '1e999999999'"),
], ids=["zero-denominator", "huge-exponent"])
def test_cli_bad_csv_field_exits_2(field, message, tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,%s\n" % field)
    assert run_cli("cz-sparse", "--level", "1", "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("level = 4\nseed = 42  # comment\n")
    code = run_cli("decompose", "--level", "3", "--seed", "0",
                   "--config", str(cfg))
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["level"] == 4
    assert data["config"]["seed"] == 42


def test_cli_osc_estimate_keeps_lambda(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lambda = 1/4\n")
    assert run_cli("osc-estimate", "--level", "4", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["config"]["lam"] == "1/4"
    assert run_cli("osc-estimate", "--level", "4", "--lambda", "1/3") == 0
    assert json.loads(capsys.readouterr().out)["config"]["lam"] == "1/3"


# the keys each subcommand and criterion reads besides fmt and out; a
# subcommand given --input reads no seed and no kind
COMMAND_READS = {
    "cover-test": {"seed", "trials"},
    "decompose": {"dim", "level", "seed", "kind"},
    "cz-sparse": {"dim", "level", "seed", "kind"},
    "dominate": {"dim", "level", "seed", "kind"},
    "osc-estimate": {"dim", "level", "seed", "kind", "lam", "q_lo", "q_hi"},
    "a2-scan": {"dim", "level", "seed", "operator", "exponents"},
    "acceptance": set(),
}
_SAMPLED = {"dim", "level", "seed", "trials", "kind"}
CRITERION_READS = {
    "cover-6x": {"seed", "trials"},
    "sparse-invariants": _SAMPLED,
    "maximal-sandwich": _SAMPLED,
    "osc-decomposition": _SAMPLED - {"kind"},
    "l2-bound-8": _SAMPLED,
    "weak11-growth": _SAMPLED | {"m_list"},
    "adjoint-osc-growth": _SAMPLED | {"m_list", "lam"},
    "hilbert-exact": _SAMPLED - {"kind"},
    "osc-stability": _SAMPLED | {"lam"},
    "master-domination": _SAMPLED,
    "a2-scan": {"dim", "level", "seed"},
}
# a value for every key but fmt and out, and the value its config echo shows
KEY_VALUES = {"dim": ("1", 1), "level": ("3", 3), "seed": ("1", 1),
              "trials": ("1", 1), "m_list": ("1,2", [1, 2]),
              "lam": ("1/4", "1/4"), "kind": ("spike", "spike"),
              "operator": ("hilbert", "hilbert"), "q_lo": ("1/4", None),
              "q_hi": ("3/4", None), "exponents": ("0,0.5", None)}
FLAGS = {key: flag for key, (_, flag, _) in cli._KEYS.items()
         if flag and key in KEY_VALUES}


def _readers(key):
    return "subcommands that read it: %s; criteria: %s" % tuple(
        ", ".join(name for name, reads in table.items() if key in reads)
        or "none" for table in (COMMAND_READS, CRITERION_READS))


def test_cli_declares_the_keys_each_command_reads():
    assert {name: set(reads) for name, (_, reads) in cli._COMMANDS.items()} \
        == COMMAND_READS
    assert {cid: set(entry[2]) for cid, entry in harness._REGISTRY.items()} \
        == CRITERION_READS


# (argv before the key, the command or criterion named in the message, keys)
UNREAD_CASES = (
    [((name,), name, set(KEY_VALUES) - reads)
     for name, reads in COMMAND_READS.items() if name != "acceptance"]
    + [(("decompose", "--input", "rationals-1d-level5.csv"),
        "decompose --input", {"seed", "kind"})]
    + [(("acceptance", "--id", cid), "acceptance: criterion " + cid,
        set(KEY_VALUES) - reads) for cid, reads in CRITERION_READS.items()]
    # λ by criterion number, and for the whole suite
    + [(("acceptance", "--id", str(CRITERION_IDS.index(cid) + 1)),
        "acceptance: criterion " + cid, {"lam"})
       for cid, reads in CRITERION_READS.items() if "lam" not in reads]
    + [(("acceptance", "--all"), "acceptance: criterion cover-6x", {"lam"})])


@pytest.mark.parametrize("argv, who, key", [
    (argv, who, key) for argv, who, keys in UNREAD_CASES for key in sorted(keys)],
    ids=["%s-%s" % (" ".join(argv), key)
         for argv, _, keys in UNREAD_CASES for key in sorted(keys)])
def test_cli_rejects_a_key_it_does_not_read(argv, who, key, tmp_path, capsys):
    # by flag, by --config and by the key's --config alias: exit 2 before
    # anything runs, naming the key and every command and criterion reading it
    argv = [str(DATA / a) if a.endswith(".csv") else a for a in argv]
    value = KEY_VALUES[key][0]
    spellings = [[FLAGS[key], value]] if key in FLAGS else []
    for name in [key] + [alias for alias, k in cli._KEY_ALIASES.items()
                         if k == key]:
        cfg = tmp_path / ("%s.txt" % name)
        cfg.write_text("%s = %s\n" % (name, value))
        spellings.append(["--config", str(cfg)])
    for extra in spellings:
        assert run_cli(*argv, *extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and "PASS" not in err and "FAIL" not in err
        assert "Traceback" not in err
        assert "sparsedom: %s reads no %s (%s); %s\n" % (
            who, key, FLAGS.get(key, "--config"), _readers(key)) == err


@pytest.mark.parametrize("name", list(COMMAND_READS))
def test_cli_help_lists_the_flags_it_reads(name, capsys):
    # --format and --out besides the declared keys; acceptance lists the
    # keys of its criteria
    reads = COMMAND_READS[name] if name != "acceptance" \
        else set().union(*CRITERION_READS.values())
    with pytest.raises(SystemExit) as exc:
        run_cli(name, "--help")
    assert exc.value.code == 0
    key_flags = {flag for _, flag, _ in cli._KEYS.values() if flag}
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) & key_flags
    assert listed == {"--format", "--out"} | {FLAGS[k] for k in reads if k in FLAGS}


@pytest.mark.parametrize("argv", [(name,) for name in COMMAND_READS
                                  if name != "acceptance"]
                         + [("acceptance", "--id", cid) for cid in CRITERION_READS],
                         ids=" ".join)
def test_cli_runs_with_every_key_it_reads(argv, tmp_path, capsys):
    # every declared key at once, by flag where it has one and by --config
    # otherwise, reaches the report
    reads = CRITERION_READS[argv[-1]] if argv[0] == "acceptance" \
        else COMMAND_READS[argv[0]]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join("%s = %s\n" % (key, KEY_VALUES[key][0])
                           for key in reads if key not in FLAGS))
    flags = [arg for key in reads if key in FLAGS
             for arg in (FLAGS[key], KEY_VALUES[key][0])]
    assert run_cli(*argv, *flags, "--config", str(cfg)) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    echo = report["verdicts"][0]["config"] if argv[0] == "acceptance" \
        else report["config"]
    assert {key: echo[key] for key in reads if key in FLAGS} == \
        {key: KEY_VALUES[key][1] for key in reads if key in FLAGS}
    if "q_lo" in reads:
        assert (report["q"]["lo"], report["q"]["hi"]) == (["1/4"], ["3/4"])
    if "exponents" in reads:
        assert [row["a"] for row in report["scan"]["rows"]] == [0, 0.5]


def test_cli_a_criterion_reading_lambda_takes_it(capsys):
    assert run_cli("acceptance", "--id", "adjoint-osc-growth", "--lambda", "1/4",
                   "--level", "3", "--trials", "1") in (0, 1)
    verdict, = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["config"]["lam"] == "1/4"


def test_cli_acceptance_id_and_all_exclude_each_other(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_criterion", lambda cid, cfg: ran.append(cid))
    with pytest.raises(SystemExit) as exc:
        run_cli("acceptance", "--all", "--id", "3")
    assert exc.value.code == 2 and ran == []
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("first, second, key", [
    ("level = 4", "level = 5", "level"), ("lam = 1/4", "lambda = 1/8", "lam"),
    ("m = 1", "m_list = 2", "m_list")], ids=["level", "lambda-alias", "m-alias"])
def test_cli_config_file_key_given_twice_exits_2(first, second, key, monkeypatch,
                                                 tmp_path, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_criterion", lambda cid, cfg: ran.append(cid))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# twice\n%s\n%s\n" % (first, second))
    assert run_cli("acceptance", "--id", "adjoint-osc-growth",
                   "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "%s:3: %s is given twice" % (cfg, key) in err
    assert ran == [] and "Traceback" not in err


def test_cli_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("colour = blue\n")
    assert run_cli("decompose", "--config", str(cfg)) == 2


def test_cli_osc_estimate_q_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("q_lo = 1/4\nq_hi = 3/4\n")
    code = run_cli("osc-estimate", "--level", "4", "--seed", "6",
                   "--kind", "power-profile", "--config", str(cfg))
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["q"]["lo"] == ["1/4"] and data["q"]["hi"] == ["3/4"]
    assert data["estimate"]["defect"] is False


def test_cli_a2_scan_csv_header(capsys):
    code = run_cli("a2-scan", "--level", "3", "--format", "csv",
                   "--operator", "hilbert")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a,A2,opnorm,ratio"
    assert len(lines) == 7


def test_cli_acceptance_single_id(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("acceptance", "--id", "1", "--trials", "200",
                   "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_passed"] is True
    assert data["verdicts"][0]["criterion"] == "cover-6x"
    err = capsys.readouterr().err
    assert "PASS" in err


@pytest.mark.parametrize("cid", ["l2-bound-8", "weak11-growth",
                                 "adjoint-osc-growth", "a2-scan"])
def test_cli_one_dimensional_criteria_exit_2_at_dim_2(cid, capsys):
    # a2-scan reads no trials, and a key it does not read exits 2 first
    trials = ["--trials", "1"] if cid != "a2-scan" else []
    assert run_cli("acceptance", "--id", cid, "--dim", "2", "--level", "3",
                   *trials) == 2
    err = capsys.readouterr().err
    assert "dimension 1 only" in err and "Traceback" not in err


def test_run_criterion_checks_supported_dimensions():
    with pytest.raises(ValueError):
        run_criterion("master-domination",
                      replace(default_config("master-domination"), dim=2, level=3))


def test_cli_a2_scan_rejects_dim_2(capsys):
    assert run_cli("a2-scan", "--dim", "2", "--level", "3") == 2
    assert "one-dimensional" in capsys.readouterr().err


def test_cli_acceptance_requires_id_or_all(capsys):
    assert run_cli("acceptance") == 2


def test_cli_acceptance_honours_out_and_fmt_from_the_config_file(tmp_path,
                                                                  capsys):
    out, cfg = tmp_path / "acc.json", tmp_path / "acc.cfg"
    cfg.write_text("out = %s\ntrials = 200\n" % out)
    assert run_cli("acceptance", "--id", "cover-6x", "--config", str(cfg)) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data["verdicts"][0]["measured"]["trials_1d"] == 200
    cfg.write_text("fmt = csv\ntrials = 200\n")
    assert run_cli("acceptance", "--id", "cover-6x", "--config", str(cfg)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "verdicts[0].criterion,cover-6x" in lines


def test_cli_acceptance_numeric_alias(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("acceptance", "--id", "8", "--level", "4",
                   "--trials", "10", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["verdicts"][0]["criterion"] == "hilbert-exact"


def test_cli_reports_reproducible_modulo_timestamp(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert run_cli("acceptance", "--id", "1", "--trials", "150",
                       "--out", str(p)) == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        d.pop("timestamp")
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_cli_bad_flag_value_exits_2():
    assert run_cli("decompose", "--level", "99") == 2


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sparsedom.cli", "cover-test",
         "--trials", "100", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_domination_without_an_instance_fails_honestly():
    # seed 144 draws an all-zero core function at level 1: nothing to measure
    cfg = replace(default_config("master-domination"), level=1, trials=1, seed=144)
    v = run_criterion("master-domination", cfg)
    assert not v.passed
    assert v.measured == {"instances": 0, "c_min": None, "c_max": None,
                          "spread": None}
    assert "no instance measured" in v.witness["reason"]
    json.dumps(v.to_json(), allow_nan=False)
