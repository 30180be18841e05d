"""Config parsing, report writing, certificate verification, CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

from slowclt import (
    BoundMismatch,
    ConfigError,
    ParseError,
    ExperimentConfig,
    run_experiment,
    verify_certificate,
    write_report,
)
from slowclt.cli import main

BASE = {
    "schema_version": 1,
    "variant": "thm1",
    "rate": {"family": "power-law", "c": 0.5, "beta": 0.5},
    "K": 3,
}


def desk_config(**over):
    raw = dict(BASE)
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_valid(self):
        cfg = desk_config(seed=7, mc_reps=1000)
        assert cfg.variant == "thm1" and cfg.seed == 7

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict({**BASE, "bogus": 1})

    def test_missing_field_rejected(self):
        raw = dict(BASE)
        del raw["rate"]
        with pytest.raises(ConfigError, match="missing"):
            ExperimentConfig.from_dict(raw)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            ExperimentConfig.from_dict({**BASE, "schema_version": 99})

    def test_wrong_type(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**BASE, "K": "three"})

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**BASE, "K": 0})

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**BASE, "variant": "thm7"})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BASE, "seed": 3}))
        assert ExperimentConfig.from_file(str(path)).seed == 3

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(bad))


@pytest.fixture(scope="module")
def thm1_bundle():
    return run_experiment(desk_config(seed=7))


class TestRunExperiment:
    def test_thm1_desk_all_pass(self, thm1_bundle):
        names = [r.name for r in thm1_bundle.results]
        assert names.count("llt") == 3 and names.count("clt") == 3
        assert thm1_bundle.all_passed
        assert len(thm1_bundle.results) == 8

    def test_model_summary_recorded(self, thm1_bundle):
        s = thm1_bundle.model_summary
        assert s["towers"] == 4  # 3 scheduled + remainder
        assert 0 < s["mu_inactive"] < 1
        assert s["noise"] == "lattice"

    def test_baseline(self):
        b = run_experiment(desk_config(variant="iid-baseline", K=1))
        assert b.all_passed and len(b.results) == 3


class TestWriteAndVerify:
    def test_round_trip(self, thm1_bundle, tmp_path):
        paths = write_report(thm1_bundle, str(tmp_path))
        checks = verify_certificate(paths["ndjson"])
        assert len(checks) > 0
        assert os.path.exists(paths["txt"]) and os.path.exists(paths["csv"])

    def test_ndjson_deterministic(self, tmp_path):
        b1 = run_experiment(desk_config(seed=7))
        b2 = run_experiment(desk_config(seed=7))
        p1 = write_report(b1, str(tmp_path / "a"))
        p2 = write_report(b2, str(tmp_path / "b"))
        assert open(p1["ndjson"], "rb").read() == open(p2["ndjson"], "rb").read()
        assert open(p1["csv"], "rb").read() == open(p2["csv"], "rb").read()

    def test_curves_header(self, thm1_bundle, tmp_path):
        paths = write_report(thm1_bundle, str(tmp_path))
        header = open(paths["csv"]).readline().strip()
        assert header == "variant,k,n,llt_value,llt_bound,clt_value,clt_bound,method"

    def test_tampered_value_detected(self, thm1_bundle, tmp_path):
        paths = write_report(thm1_bundle, str(tmp_path))
        lines = open(paths["ndjson"]).read().splitlines()
        out = []
        for line in lines:
            rec = json.loads(line)
            if rec.get("name") == "llt" and rec.get("index") == 0:
                rec["value"] = 0.0  # below the bound
            out.append(json.dumps(rec, sort_keys=True))
        tampered = tmp_path / "tampered.ndjson"
        tampered.write_text("\n".join(out) + "\n")
        with pytest.raises(BoundMismatch):
            verify_certificate(str(tampered))

    def test_tampered_bound_detected(self, thm1_bundle, tmp_path):
        paths = write_report(thm1_bundle, str(tmp_path))
        lines = open(paths["ndjson"]).read().splitlines()
        out = []
        for line in lines:
            rec = json.loads(line)
            if rec.get("name") == "clt" and rec.get("index") == 1:
                rec["bound"] = rec["bound"] / 10
            out.append(json.dumps(rec, sort_keys=True))
        tampered = tmp_path / "tampered.ndjson"
        tampered.write_text("\n".join(out) + "\n")
        with pytest.raises(BoundMismatch):
            verify_certificate(str(tampered))

    def test_dropped_probe_detected(self, thm1_bundle, tmp_path):
        paths = write_report(thm1_bundle, str(tmp_path))
        lines = open(paths["ndjson"]).read().splitlines()
        kept = [l for l in lines if json.loads(l).get("name") != "mds"]
        trimmed = tmp_path / "trimmed.ndjson"
        trimmed.write_text("\n".join(kept) + "\n")
        with pytest.raises(BoundMismatch, match="probe records"):
            verify_certificate(str(trimmed))

    def test_empty_file_is_parse_error(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        with pytest.raises(ParseError):
            verify_certificate(str(empty))

    def test_garbage_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("this is not json\n")
        with pytest.raises(ParseError):
            verify_certificate(str(bad))


class TestLatticeLawOnce:
    def test_one_law_per_k(self, monkeypatch):
        import slowclt.probes
        import slowclt.reporting

        # every law of S_{n_k} comes from one pass over all windows, and no
        # probe computes a law again
        calls = []
        real = slowclt.reporting.lattice_sum_distributions

        def counting(model, windows):
            calls.append(list(windows))
            return real(model, windows)

        def single(model, n):
            calls.append(n)
            raise AssertionError("a probe recomputed the law of S_n")

        monkeypatch.setattr(slowclt.reporting, "lattice_sum_distributions", counting)
        monkeypatch.setattr(slowclt.probes, "lattice_sum_distribution", single)
        bundle = run_experiment(desk_config(seed=7))
        assert calls == [[16, 64, 256]]
        assert bundle.all_passed


@pytest.fixture(scope="module")
def thm2_certificate(tmp_path_factory):
    cfg = desk_config(variant="thm2", rate={"family": "power-law", "c": 0.05, "beta": 1.0},
                      K=4)
    path = write_report(run_experiment(cfg), str(tmp_path_factory.mktemp("thm2")))["ndjson"]
    return open(path).read().splitlines()


def _rederived(checks):
    return [c for c in checks if "re-derived" in c]


def _probe_labels(lines):
    """One re-derived check per probe record, in record order."""
    recs = [json.loads(line) for line in lines]
    return [f"{r['name']}[{r['index']}]: every field re-derived"
            for r in recs if r["record"] == "probe"]


def _mutate(lines, name, k, change):
    out = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("name") == name and rec.get("index") == k:
            change(rec)
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


def _apply(*keys, fn):
    def change(rec):
        *path, last = keys
        for key in path:
            rec = rec[key]
        rec[last] = fn(rec[last])
    return change


def _scale(*keys, by=1.0 + 1e-9):
    return _apply(*keys, fn=lambda v: v * by)


def _set(**fields):
    def change(rec):
        for key, v in fields.items():
            if key in rec:
                rec[key] = v
            else:
                rec["details"][key] = v
    return change


# (record name, field perturbation): each must make verify exit 1
THM2_MUTATIONS = {
    "ratio value 1e6, b_n 0": ("llt-ratio", _set(value=1e6, b_n=0.0)),
    "ratio value": ("llt-ratio", _scale("value")),
    "b_n": ("llt-ratio", _scale("details", "b_n")),
    "b_error": ("llt-ratio", _scale("details", "b_error", by=2.0)),
    "tilde_tower_mass": ("llt-ratio", _scale("details", "tilde_tower_mass")),
    "b_method monte-carlo": ("llt-ratio", _set(b_method="monte-carlo")),
    "ratio_lower": ("clt", _scale("details", "ratio_lower")),
    "clt value": ("clt", _scale("value")),
}


class TestThm2Verify:
    def test_golden_certificate_verifies(self, thm2_certificate, tmp_path):
        path = tmp_path / "report.ndjson"
        path.write_text("\n".join(thm2_certificate) + "\n")
        checks = verify_certificate(str(path))
        assert _rederived(checks) == _probe_labels(thm2_certificate)
        for line in thm2_certificate:
            rec = json.loads(line)
            if rec.get("name") == "llt-ratio":
                assert rec["details"]["b_method"] == "exact-rational"

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("what", sorted(THM2_MUTATIONS))
    def test_mutation_exits_1(self, thm2_certificate, tmp_path, capsys, what, k):
        name, change = THM2_MUTATIONS[what]
        path = tmp_path / "tampered.ndjson"
        path.write_text(_mutate(thm2_certificate, name, k, change))
        assert main(["verify", str(path)]) == 1

    def test_frontier_k14_round_trip(self, tmp_path, capsys):
        # n_13 = 200 is not a square, so b_200 is bracketed at two ends
        cfg = desk_config(variant="thm2", rate={"family": "power-law", "c": 0.05, "beta": 1.0},
                          K=14)
        bundle = run_experiment(cfg)
        assert bundle.schedule.n[13] == 200
        assert bundle.all_passed
        path = write_report(bundle, str(tmp_path))["ndjson"]
        assert _rederived(verify_certificate(path)) == _probe_labels(open(path).read().splitlines())
        assert main(["verify", path]) == 0

    def test_missing_detail_is_parse_error(self, thm2_certificate, tmp_path):
        def drop(rec):
            del rec["details"]["b_n"]
        path = tmp_path / "tampered.ndjson"
        path.write_text(_mutate(thm2_certificate, "llt-ratio", 1, drop))
        with pytest.raises(ParseError):
            verify_certificate(str(path))


@pytest.fixture(scope="module")
def thm3_certificate(tmp_path_factory):
    cfg = desk_config(variant="thm3", rate={"family": "power-law", "c": 0.25, "beta": 0.5},
                      K=2)
    path = write_report(run_experiment(cfg), str(tmp_path_factory.mktemp("thm3")))["ndjson"]
    return open(path).read().splitlines()


# mixing-record perturbations that keep beta(m_k) <= 7 eps_k and the pass
# flag, so only the re-derivation from the schedule's tower chain sees them
THM3_MUTATIONS = {
    "m_0 one larger": _apply("details", "m_lags", 0, fn=lambda m: m + 1),
    "m_0 one smaller": _apply("details", "m_lags", 0, fn=lambda m: m - 1),
    "m_1 one larger": _apply("details", "m_lags", 1, fn=lambda m: m + 1),
    "beta_at_m[0] lowered": _scale("details", "beta_at_m", 0, by=1.0 - 1e-9),
    "beta_at_m[1] lowered": _scale("details", "beta_at_m", 1, by=1.0 - 1e-9),
    "value lowered": _scale("value", by=1.0 - 1e-9),
    "aperiodic flipped": _set(aperiodic=False),
}


class TestThm3Verify:
    def test_golden_certificate_verifies(self, thm3_certificate, tmp_path):
        path = tmp_path / "report.ndjson"
        path.write_text("\n".join(thm3_certificate) + "\n")
        checks = verify_certificate(str(path))
        assert _rederived(checks) == _probe_labels(thm3_certificate)

    @pytest.mark.parametrize("what", sorted(THM3_MUTATIONS))
    def test_mutation_exits_1(self, thm3_certificate, tmp_path, capsys, what):
        path = tmp_path / "tampered.ndjson"
        path.write_text(_mutate(thm3_certificate, "mixing", -1, THM3_MUTATIONS[what]))
        assert main(["verify", str(path)]) == 1


class TestCli:
    def test_schedule_subcommand(self, capsys):
        rc = main(["schedule", "--variant", "thm1", "--K", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == [16, 64]

    def test_build_subcommand(self, capsys):
        rc = main(["build", "--variant", "thm3", "--rate-c", "0.25", "--K", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["aperiodic"] is True

    def test_probe_subcommand(self, capsys):
        rc = main(["probe", "--variant", "thm3", "--rate-c", "0.25", "--K", "2",
                   "llt", "--k", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True

    def test_report_and_verify(self, tmp_path, capsys):
        out = str(tmp_path)
        rc = main(["report", "--variant", "iid-baseline", "--out", out])
        assert rc == 0
        rc = main(["verify", os.path.join(out, "report.ndjson")])
        assert rc == 0

    def test_report_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE, "seed": 7,
                                   "output_dir": str(tmp_path)}))
        rc = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "report.ndjson").exists()

    def test_report_writes_to_config_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE, "variant": "iid-baseline", "K": 1,
                                   "output_dir": str(tmp_path / "wanted")}))
        assert main(["report", "--config", str(cfg)]) == 0
        assert (tmp_path / "wanted" / "report.ndjson").exists()
        assert not (tmp_path / "report.ndjson").exists()
        # an explicit --out wins over the config
        assert main(["report", "--config", str(cfg), "--out", "elsewhere"]) == 0
        assert (tmp_path / "elsewhere" / "report.ndjson").exists()

    def test_report_from_flags_writes_to_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--variant", "iid-baseline"]) == 0
        assert (tmp_path / "report.ndjson").exists()

    @pytest.mark.parametrize("k", ["3", "-1"])
    def test_probe_index_out_of_range_exit_2(self, capsys, k):
        assert main(["probe", "--variant", "thm1", "--K", "3", "llt", "--k", k]) == 2
        captured = capsys.readouterr()
        assert f"--k must be in [0, 3), got {k}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("variant", ["thm1", "thm2"])
    def test_probe_mixing_without_eps_exit_2(self, capsys, variant):
        assert main(["probe", "--variant", variant, "--K", "2", "mixing"]) == 2
        captured = capsys.readouterr()
        assert "eps" in captured.err and captured.out == ""

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE, "bogus": True}))
        rc = main(["report", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("variant, constants", [
        ("thm1", '{"bogus": 1}'),
        ("thm2", '{"L1": "x"}'),
        ("thm1", '[1]'),
        ("thm3", '{"eps0": -1}'),
    ])
    def test_bad_constants_exit_2(self, capsys, variant, constants):
        assert main(["schedule", "--variant", variant, "--constants", constants]) == 2
        assert "constant" in capsys.readouterr().err

    def test_search_cap_below_schedule_exit_2(self, capsys):
        assert main(["schedule", "--variant", "thm1", "--rate-c", "0.01", "--rate-beta", "1",
                     "--K", "3", "--constants", '{"search_cap": 2}']) == 2
        captured = capsys.readouterr()
        assert "search_cap 2" in captured.err and captured.out == ""

    def test_wholly_inactive_tower_certifies(self, tmp_path, capsys):
        # n_0 = 1: the slab A_0 is all of tower 0
        out = str(tmp_path)
        assert main(["report", "--variant", "thm1", "--rate-c", "0.1", "--rate-beta", "1",
                     "--K", "3", "--out", out]) == 0
        assert main(["verify", os.path.join(out, "report.ndjson")]) == 0

    @pytest.mark.parametrize("over", [
        {"schema_version": True}, {"K": True}, {"seed": False}, {"mc_reps": False},
        {"seed": -3}, {"mc_reps": -5},
        {"rate": {"family": "power-law", "c": "0.5", "beta": True}},
        {"rate": {"family": "power-law", "c": 0.5}},
        {"rate": {"family": "power-law", "c": 0.5, "beta": 0.5, "bogus": 1}},
        {"rate": {"family": "bogus", "c": 0.5, "beta": 0.5}},
    ])
    def test_bad_config_value_exit_2(self, tmp_path, capsys, over):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE, **over}))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report.ndjson").exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "-3"],
        ["--variant", "thm2", "--rate-c", "0.05", "--rate-beta", "1", "--K", "4",
         "--mc-reps", "-5"],
        ["--rate-c", "nan"],
    ])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, flags):
        assert main(["report", *flags, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "report.ndjson").exists()

    def test_bool_k_in_header_exit_1(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["report", "--variant", "iid-baseline", "--K", "1", "--out", out]) == 0
        path = os.path.join(out, "report.ndjson")
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["K"] = True
        lines[0] = json.dumps(header, sort_keys=True)
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["verify", path]) == 1
        assert "malformed certificate header" in capsys.readouterr().err

    def test_tampered_certificate_exit_code(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["report", "--variant", "iid-baseline", "--out", out]) == 0
        path = os.path.join(out, "report.ndjson")
        lines = open(path).read().splitlines()
        rec = json.loads(lines[-1])
        rec["passed"] = False
        lines[-1] = json.dumps(rec, sort_keys=True)
        open(path, "w").write("\n".join(lines) + "\n")
        assert main(["verify", path]) == 1


class TestFailingProbe:
    def test_rerun_failure_is_bound_mismatch(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import slowclt.probes

        real = slowclt.probes.variance_probe

        def failing(model):
            r = real(model)
            return dataclasses.replace(r, value=r.bound)  # no margin: fails

        monkeypatch.setattr(slowclt.probes, "variance_probe", failing)
        bundle = run_experiment(desk_config())
        assert [f"{r.name}[{r.index}]" for r in bundle.results if not r.passed] == [
            "variance[-1]"]
        path = write_report(bundle, str(tmp_path))["ndjson"]
        with pytest.raises(BoundMismatch, match=r"variance\[-1\]"):
            verify_certificate(path)
        assert main(["verify", path]) == 1
        assert "variance[-1]" in capsys.readouterr().err


def _power_law(c, beta):
    return {"family": "power-law", "c": c, "beta": beta}


# one small certificate of each variant
GOLDEN = {
    "thm1": dict(variant="thm1", rate=_power_law(0.5, 1.0), K=2),
    "thm3": dict(variant="thm3", rate=_power_law(0.1, 1.0), K=2),
    "thm2": dict(variant="thm2", rate=_power_law(0.1, 1.0), K=2),
    "iid-baseline": dict(variant="iid-baseline", K=1),
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    out = {}
    for variant, over in GOLDEN.items():
        bundle = run_experiment(desk_config(**over))
        assert bundle.all_passed
        path = write_report(bundle, str(tmp_path_factory.mktemp(variant)))["ndjson"]
        out[variant] = open(path).read().splitlines()
    return out


def _leaf_mutations(value, path=()):
    """(path, new value) for each leaf: floats scaled by 1 + 1e-9 (0.0 set to
    1e-300), ints plus 1, bools flipped, strings changed."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaf_mutations(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaf_mutations(v, path + (i,))
    elif isinstance(value, bool):
        yield path, not value
    elif isinstance(value, int):
        yield path, value + 1
    elif isinstance(value, float):
        yield path, value * (1.0 + 1e-9) if value != 0.0 else 1e-300
    elif isinstance(value, str):
        yield path, value + "x"


class TestEveryFieldVerified:
    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_golden_certificate_verifies(self, golden, tmp_path, variant):
        path = tmp_path / "report.ndjson"
        path.write_text("\n".join(golden[variant]) + "\n")
        checks = verify_certificate(str(path))
        assert _rederived(checks) == _probe_labels(golden[variant])

    @pytest.mark.parametrize("variant", sorted(GOLDEN))
    def test_every_leaf_mutation_exits_1(self, golden, tmp_path, capsys, variant):
        lines = golden[variant]
        path = tmp_path / "tampered.ndjson"
        survivors, tried = [], 0
        for i in range(1, len(lines)):
            for keys, new in _leaf_mutations(json.loads(lines[i])):
                rec = json.loads(lines[i])
                target = rec
                for key in keys[:-1]:
                    target = target[key]
                target[keys[-1]] = new
                path.write_text("\n".join(
                    lines[:i] + [json.dumps(rec, sort_keys=True)] + lines[i + 1:]) + "\n")
                tried += 1
                if main(["verify", str(path)]) != 1:
                    survivors.append((i, keys))
        assert tried > 25
        assert survivors == []

    def test_extra_field_is_bound_mismatch(self, golden, tmp_path):
        lines = list(golden["thm1"])
        rec = json.loads(lines[-1])
        rec["details"]["note"] = "added"
        lines[-1] = json.dumps(rec, sort_keys=True)
        path = tmp_path / "tampered.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BoundMismatch, match="note"):
            verify_certificate(str(path))

    @pytest.mark.parametrize("field,cast", [("passed", int), ("index", float)])
    def test_equal_value_of_another_type_fails(self, golden, tmp_path, field, cast):
        lines = list(golden["thm1"])
        rec = json.loads(lines[-1])
        rec[field] = cast(rec[field])
        lines[-1] = json.dumps(rec, sort_keys=True)
        path = tmp_path / "tampered.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BoundMismatch, match=field):
            verify_certificate(str(path))


HEADER_DEFECTS = {
    "K not an integer": lambda h: h.update(K="two"),
    "rate without c": lambda h: h["rate"].pop("c"),
    "unknown rate family": lambda h: h["rate"].update(family="bogus"),
}


class TestMalformedHeader:
    @pytest.mark.parametrize("what", sorted(HEADER_DEFECTS))
    def test_parse_error_exits_1(self, golden, tmp_path, capsys, what):
        lines = list(golden["thm1"])
        header = json.loads(lines[0])
        HEADER_DEFECTS[what](header)
        lines[0] = json.dumps(header, sort_keys=True)
        path = tmp_path / "tampered.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="header"):
            verify_certificate(str(path))
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: malformed certificate header")


class TestSeedIndependence:
    # the seeds at which the strong-MDS Monte Carlo statistic rejected these
    # correct models; the exact record does not depend on the seed
    @pytest.mark.parametrize("variant,rate,K,seed", [
        ("thm1", _power_law(0.5, 1.0), 5, 17),
        ("thm2", _power_law(0.05, 1.0), 12, 36),
    ])
    def test_records_identical_to_seed_0(self, tmp_path, variant, rate, K, seed):
        texts = {}
        for s in (0, seed):
            bundle = run_experiment(desk_config(variant=variant, rate=rate, K=K, seed=s))
            assert bundle.all_passed
            path = write_report(bundle, str(tmp_path / f"seed{s}"))["ndjson"]
            verify_certificate(path)
            texts[s] = open(path).read().splitlines()
        mds = [json.loads(line) for line in texts[seed] if '"mds"' in line]
        assert [(r["method"], r["value"]) for r in mds] == [("exact", 0.0)]
        assert texts[seed][1:] == texts[0][1:]


class TestProbeMds:
    def test_exact_by_default(self, capsys):
        rc = main(["probe", "--variant", "thm1", "--rate-c", "0.5", "--rate-beta", "1",
                   "--K", "5", "mds", "--seed", "17"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["method"], out["value"]) == ("exact", 0.0)

    def test_monte_carlo_with_mc_reps(self, capsys):
        main(["probe", "--variant", "thm1", "--rate-c", "0.5", "--rate-beta", "1",
              "--K", "2", "mds", "--mc-reps", "20000"])
        assert json.loads(capsys.readouterr().out)["method"] == "monte-carlo"


# one small instance of each variant, as flags of every subcommand but verify
CLI_FLAGS = {
    "thm1": ["--variant", "thm1", "--K", "3"],
    "thm3": ["--variant", "thm3", "--rate-c", "0.25", "--K", "3"],
    "thm2": ["--variant", "thm2", "--rate-c", "0.05", "--rate-beta", "1", "--K", "4"],
}
# the probe subcommand's name for each probe record it can reproduce
PROBE_NAMES = {"llt": "llt", "llt-ratio": "llt", "clt": "clt", "mds": "mds",
               "mixing": "mixing", "variance": "variance"}


@pytest.mark.parametrize("variant", sorted(CLI_FLAGS))
def test_cli_prints_certificate_records(tmp_path, capsys, variant):
    flags = CLI_FLAGS[variant]

    def printed(*args):
        rc = main([*args])
        out = json.loads(capsys.readouterr().out)
        assert rc == (0 if out.get("passed", True) else 1)
        return out

    assert main(["report", *flags, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in open(tmp_path / "report.ndjson")]
    schedule, model = records[1], records[2]
    assert printed("schedule", *flags) == schedule
    built = printed("build", *flags)
    assert built == {**model, "variant": variant, "aperiodic": True}
    probed = set()
    for rec in records[3:]:
        name = PROBE_NAMES.get(rec["name"])
        if name is None:
            continue
        k = ["--k", str(rec["index"])] if name in ("llt", "clt") else []
        assert printed("probe", *flags, name, *k) == rec
        probed.add(rec["name"])
    assert probed >= {"clt", "variance"}
    mc = printed("probe", *flags, "mds", "--mc-reps", "20000")
    assert mc["method"] == "monte-carlo" and type(mc["passed"]) is bool


# Linux carries a process's peak resident set size across fork and exec, so
# a child of the test process would report the test process's peak.  A small
# launcher runs `slowclt report` and then `slowclt verify` as its children and
# prints, for each, the exit code, the wall time and the children's peak
# ru_maxrss (KiB on Linux).
K5_LAUNCHER = """
import resource, subprocess, sys, time
out, K = sys.argv[1], sys.argv[2]
for args in (["report", "--variant", "thm1", "--rate-c", "0.5", "--rate-beta", "0.5",
              "--K", K, "--out", out], ["verify", out + "/report.ndjson"]):
    t0 = time.monotonic()
    rc = subprocess.run([sys.executable, "-m", "slowclt.cli"] + args,
                        stdout=subprocess.DEVNULL).returncode
    print(rc, time.monotonic() - t0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _certify_thm1(tmp_path, K: int) -> list[tuple[str, float, int]]:
    """(exit code, seconds, children's peak KiB) of report, then of verify."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", K5_LAUNCHER, str(tmp_path), str(K)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert len(lines) == 2
    return [(rc, float(seconds), int(kib)) for rc, seconds, kib in lines]


def test_thm1_k5_certifies_under_1gb(tmp_path):
    # n_4 = 4096 on 5.5e8 states: every cost must follow the runs, not the
    # states, and the landing rows stream through a ring of 640 rows
    for rc, seconds, maxrss_kib in _certify_thm1(tmp_path, 5):
        assert rc == "0" and seconds < 30.0 and maxrss_kib < 96 << 10


def test_thm1_k6_certifies_under_150mb(tmp_path):
    # n_5 = 16384 on 1.8e10 states: a whole landing table would be 1.07 GB
    for rc, seconds, maxrss_kib in _certify_thm1(tmp_path, 6):
        assert rc == "0" and seconds < 30.0 and maxrss_kib < 150 << 10
