"""Config parsing, report writing, certificate verification, CLI exit codes."""

import json
import os

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
from slowclt.reporting import expected_probe_count

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


class TestProbeCount:
    def test_formulas(self):
        assert expected_probe_count("thm1", 3) == 8
        assert expected_probe_count("thm3", 3) == 9
        assert expected_probe_count("thm2", 12) == 15
        assert expected_probe_count("iid-baseline", 1) == 3


@pytest.fixture(scope="module")
def thm1_bundle():
    return run_experiment(desk_config(seed=7))


class TestRunExperiment:
    def test_thm1_desk_all_pass(self, thm1_bundle):
        names = [r.name for r in thm1_bundle.results]
        assert names.count("llt") == 3 and names.count("clt") == 3
        assert thm1_bundle.all_passed
        assert len(thm1_bundle.results) == expected_probe_count("thm1", 3)

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

        calls = []
        real = slowclt.reporting.lattice_sum_distribution

        def counting(model, n, *args, **kwargs):
            calls.append(n)
            return real(model, n, *args, **kwargs)

        monkeypatch.setattr(slowclt.reporting, "lattice_sum_distribution", counting)
        monkeypatch.setattr(slowclt.probes, "lattice_sum_distribution", counting)
        bundle = run_experiment(desk_config(seed=7))
        assert calls == [16, 64, 256]
        assert bundle.all_passed


@pytest.fixture(scope="module")
def thm2_certificate(tmp_path_factory):
    cfg = desk_config(variant="thm2", rate={"family": "power-law", "c": 0.05, "beta": 1.0},
                      K=4)
    path = write_report(run_experiment(cfg), str(tmp_path_factory.mktemp("thm2")))["ndjson"]
    return open(path).read().splitlines()


def _mutate(lines, name, k, change):
    out = []
    for line in lines:
        rec = json.loads(line)
        if rec.get("name") == name and rec.get("index") == k:
            change(rec)
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out) + "\n"


def _scale(*keys, by=1.0 + 1e-9):
    def change(rec):
        *path, last = keys
        for key in path:
            rec = rec[key]
        rec[last] *= by
    return change


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
        assert sum("re-derived" in c for c in checks) == 4  # llt-ratio and clt at k = 1, 3
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

    def test_missing_detail_is_parse_error(self, thm2_certificate, tmp_path):
        def drop(rec):
            del rec["details"]["b_n"]
        path = tmp_path / "tampered.ndjson"
        path.write_text(_mutate(thm2_certificate, "llt-ratio", 1, drop))
        with pytest.raises(ParseError):
            verify_certificate(str(path))


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**BASE, "bogus": True}))
        rc = main(["report", "--config", str(cfg)])
        assert rc == 2

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
