import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from samgog import cli, config, data


GOOD_CONFIG = """
# synthetic smoke experiment
dataset.kind = planted
dataset.num_graphs = 30
dataset.noise = 0.3
split.rho_class = 1.0
split.seed = 3
alloc.d_bar = 4
alloc.k_min = 2
alloc.k_max = 20
encoder.hidden_dim = 5
downstream.hidden_dim = 5
sampler.samples_per_epoch = 2
epochs = 6
runs = 1
seed = 5
"""


# every config key's (type, default); None means the key has no default
SCHEMA_TABLE = {
    "dataset.kind": (str, "tudataset"),
    "dataset.path": (str, None),
    "dataset.name": (str, None),
    "dataset.feature_scheme": (str, "auto"),
    "dataset.degree_cap": (int, 256),
    "dataset.num_graphs": (int, 200),
    "dataset.noise": (float, 1.0),
    "dataset.signal": (float, 1.0),
    "dataset.feature_dim": (int, 4),
    "dataset.min_nodes": (int, 8),
    "dataset.max_nodes": (int, 16),
    "dataset.edge_prob": (float, 0.3),
    "split.file": (str, None),
    "split.rho_class": (float, 1.0),
    "split.train_fraction": (float, 0.5),
    "split.val_fraction": (float, 0.25),
    "split.seed": (int, 0),
    "alloc.d_bar": (float, None),
    "alloc.k_min": (int, 3),
    "alloc.k_max": (int, 100),
    "alloc.rho1": (float, 5.0),
    "alloc.rho2": (float, 3.0),
    "alloc.window_r": (int, 20),
    "encoder.arch": (str, "gcn"),
    "encoder.num_layers": (int, 2),
    "encoder.hidden_dim": (int, 32),
    "encoder.dropout": (float, 0.0),
    "encoder.epsilon_gin": (float, 0.0),
    "encoder.readout": (str, "mean"),
    "encoder.lr": (float, 0.01),
    "sampler.mode": (str, "without-replacement"),
    "sampler.samples_per_epoch": (int, 1),
    "downstream.num_layers": (int, 2),
    "downstream.hidden_dim": (int, 64),
    "downstream.dropout": (float, 0.0),
    "downstream.lr": (float, 0.01),
    "eval_samples": (int, 0),
    "epochs": (int, 100),
    "runs": (int, 1),
    "seed": (int, 0),
}


class TestConfigParsing:
    def test_good_config_parses(self):
        cfg = config.parse_config_text(GOOD_CONFIG)
        assert cfg.runs == 1
        assert cfg.epochs == 6
        assert cfg.alloc_config().d_bar == 4.0
        assert cfg.encoder_config().hidden_dim == 5

    def test_every_key_type_and_default(self):
        def typed(schema):
            return {k: (kind, d, type(d)) for k, (kind, d) in schema.items()}

        assert typed(config._SCHEMA) == typed(SCHEMA_TABLE)

    def test_missing_d_bar_names_field(self):
        text = GOOD_CONFIG.replace("alloc.d_bar = 4", "")
        with pytest.raises(config.ConfigError, match="alloc.d_bar"):
            config.parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(config.ConfigError, match="alloc.dbar"):
            config.parse_config_text(GOOD_CONFIG + "\nalloc.dbar = 3\n")

    def test_type_error_names_field(self):
        with pytest.raises(config.ConfigError, match="epochs"):
            config.parse_config_text(GOOD_CONFIG.replace("epochs = 6", "epochs = six"))

    def test_tudataset_kind_requires_path(self):
        text = GOOD_CONFIG.replace("dataset.kind = planted", "dataset.kind = tudataset")
        with pytest.raises(config.ConfigError, match="dataset.path"):
            config.parse_config_text(text)

    @pytest.mark.parametrize("value", ["-0.25", "1.5"])
    def test_val_fraction_outside_unit_interval_rejected(self, value):
        text = GOOD_CONFIG + f"\nsplit.val_fraction = {value}\n"
        with pytest.raises(config.ConfigError, match="split.val_fraction"):
            config.parse_config_text(text)

    def test_negative_eval_samples_rejected(self):
        text = GOOD_CONFIG + "\neval_samples = -1\n"
        with pytest.raises(config.ConfigError, match="eval_samples"):
            config.parse_config_text(text)

    def test_comments_and_blank_lines_ignored(self):
        cfg = config.parse_config_text("# hi\n\n" + GOOD_CONFIG)
        assert cfg.seed == 5

    def test_overrides_apply(self):
        cfg = config.parse_config_text(GOOD_CONFIG, overrides={"seed": 99})
        assert cfg.seed == 99


class TestRunExperiment:
    def write_config(self, tmp_path, text=GOOD_CONFIG):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_single_run_writes_files_and_exits_zero(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        status = cli.main(["train", "--config", cfg_path, "--out", out])
        assert status == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "metrics.json"))
        assert os.path.exists(os.path.join(out, "curve_run0.csv"))

    def test_reinvocation_reproduces_csv_bytes(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, GOOD_CONFIG.replace("runs = 1", "runs = 3")
        )
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.main(["train", "--config", cfg_path, "--out", out_a]) == 0
        assert cli.main(["train", "--config", cfg_path, "--out", out_b]) == 0
        for name in ("metrics.csv", "curve_run0.csv", "curve_run2.csv"):
            with open(os.path.join(out_a, name), "rb") as f:
                a = f.read()
            with open(os.path.join(out_b, name), "rb") as f:
                b = f.read()
            assert a == b

    def test_summary_recomputable_from_rows(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path, GOOD_CONFIG.replace("runs = 1", "runs = 3")
        )
        out = str(tmp_path / "out")
        assert cli.main(["train", "--config", cfg_path, "--out", out]) == 0
        with open(os.path.join(out, "metrics.csv")) as f:
            lines = [ln.strip().split(",") for ln in f if ln.strip()]
        header, rows = lines[0], lines[1:]
        run_rows = [r for r in rows if r[0] not in ("mean", "std")]
        mean_row = next(r for r in rows if r[0] == "mean")
        std_row = next(r for r in rows if r[0] == "std")
        values = np.array([[float(x) for x in r[2:]] for r in run_rows])
        assert np.allclose([float(x) for x in mean_row[2:]], values.mean(axis=0),
                           atol=1e-12)
        assert np.allclose([float(x) for x in std_row[2:]], values.std(axis=0),
                           atol=1e-12)
        assert len(run_rows) == 3

    def test_dump_flags_write_audit_files(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        status = cli.main(
            ["train", "--config", cfg_path, "--out", out,
             "--dump-allocation", "--dump-gog"]
        )
        assert status == 0
        alloc_lines = Path(out, "allocation.txt").read_text().splitlines()
        assert alloc_lines[-1].startswith("total ")
        total = int(alloc_lines[-1].split()[1])
        assert sum(int(ln.split()[1]) for ln in alloc_lines[:-1]) == total
        gog_header = Path(out, "gog_eval0.txt").read_text().splitlines()[0].split()
        assert int(gog_header[0]) == 30  # num_graphs in the fixture

    def test_malformed_config_gives_nonzero_exit(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path, GOOD_CONFIG.replace("alloc.d_bar = 4", "")
        )
        status = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
        assert status == 1
        assert "alloc.d_bar" in capsys.readouterr().err

    def test_bad_planted_node_range_gives_nonzero_exit(self, tmp_path, capsys):
        text = GOOD_CONFIG + "dataset.min_nodes = 10\ndataset.max_nodes = 5\n"
        cfg_path = self.write_config(tmp_path, text)
        status = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
        assert status == 1
        assert "min_nodes=10, max_nodes=5" in capsys.readouterr().err

    def test_bad_planted_edge_prob_gives_nonzero_exit(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, GOOD_CONFIG + "dataset.edge_prob = 1.5\n")
        status = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
        assert status == 1
        assert "edge_prob=1.5" in capsys.readouterr().err

    def test_negative_learning_rate_gives_nonzero_exit(self, tmp_path, capsys):
        text = GOOD_CONFIG + "encoder.lr = -0.05\ndownstream.lr = -0.05\n"
        cfg_path = self.write_config(tmp_path, text)
        status = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path)])
        assert status == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_split_file_gives_nonzero_exit(self, tmp_path, capsys):
        split_path = tmp_path / "split.txt"
        split_path.write_text("# seed=1\n0,1\nx\n2\n")
        cfg_path = self.write_config(tmp_path, GOOD_CONFIG + f"split.file = {split_path}\n")
        status = cli.main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert status == 1
        err = capsys.readouterr().err
        assert f"{split_path}:3:" in err
        assert "ValueError" not in err


class TestOtherSubcommands:
    def write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG)
        return str(path)

    def test_sweep_homophily_writes_rows(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        status = cli.main(
            ["sweep-homophily", "--config", cfg_path, "--out", out,
             "--degrees", "2,3,4"]
        )
        assert status == 0
        with open(os.path.join(out, "homophily_sweep.csv")) as f:
            lines = [ln for ln in f.read().splitlines() if ln]
        assert lines[0] == "d_bar,homophily_mean,homophily_std,expected_homophily"
        assert len(lines) == 4
        for ln in lines[1:]:
            vals = [float(x) for x in ln.split(",")]
            assert 0.0 <= vals[1] <= 1.0
            assert 0.0 <= vals[3] <= 1.0

    def test_sweep_homophily_mean_matches_closed_form(self, tmp_path):
        # the closed form is exact for with-replacement sampling, which the
        # sweep uses even though this config samples without replacement
        cfg = config.parse_config_text(GOOD_CONFIG)
        assert cfg["sampler.mode"] == "without-replacement"
        samples = 200
        path = cli.emit_homophily_sweep(
            cfg, [2, 4, 8], str(tmp_path / "out"), samples_per_degree=samples
        )
        with open(path) as f:
            lines = f.read().splitlines()[1:]
        rows = [[float(x) for x in ln.split(",")] for ln in lines]
        assert [r[0] for r in rows] == [2.0, 4.0, 8.0]
        for _, mean, std, closed in rows:
            assert abs(mean - closed) <= 3.0 * std / np.sqrt(samples) + 1e-12

    def test_sweep_homophily_all_same_label_is_one(self, tmp_path):
        # fully labeled identical-class dataset: every sampled edge is
        # homophilous at every degree
        text = GOOD_CONFIG.replace("split.rho_class = 1.0", "split.rho_class = 1.0")
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(text)
        # patch through library call for a same-label dataset
        from samgog import data as data_mod
        from samgog.config import parse_config_text

        cfg = parse_config_text(text)
        ds = data_mod.make_path_graph_dataset([4] * 30, labels=[0] * 30)

        # all labels equal: S is all-ones off the diagonal; homophily 1.0
        import samgog.cli as cli_mod

        orig_load = cli_mod.load_dataset
        orig_split = cli_mod.resolve_split
        cli_mod.load_dataset = lambda c: ds
        cli_mod.resolve_split = lambda c, d: data_mod.SplitSpec(
            train_idx=tuple(range(15)), val_idx=tuple(range(15, 20)),
            test_idx=tuple(range(20, 30)),
        )
        try:
            path = cli_mod.emit_homophily_sweep(cfg, [2, 4], str(tmp_path / "o"))
        finally:
            cli_mod.load_dataset = orig_load
            cli_mod.resolve_split = orig_split
        with open(path) as f:
            rows = [ln.split(",") for ln in f.read().splitlines()[1:] if ln]
        for row in rows:
            assert float(row[1]) == 1.0
            assert float(row[3]) == 1.0

    def test_theory_subcommand_writes_json(self, tmp_path):
        out = str(tmp_path / "out")
        status = cli.main(
            ["theory", "--out", out, "--ordering-trials", "20",
             "--unbiasedness-trials", "300", "--monotonicity-trials", "30",
             "--t-values", "1,2,4", "--replicates", "6", "--seed", "0"]
        )
        with open(os.path.join(out, "theory.json")) as f:
            report = json.load(f)
        assert len(report["checks"]) == 4
        assert status == (0 if report["all_passed"] else 1)

    @pytest.mark.parametrize("t_values", ["0,1", "4", "32,16"])
    def test_theory_rejects_bad_t_values_by_name(self, tmp_path, capsys, t_values):
        status = cli.main(
            ["theory", "--out", str(tmp_path), "--ordering-trials", "20",
             "--unbiasedness-trials", "300", "--monotonicity-trials", "30",
             "--t-values", t_values, "--replicates", "6", "--seed", "0"]
        )
        assert status == 1
        assert "t_values" in capsys.readouterr().err

    def test_make_split_and_inspect(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["make-split", "--config", cfg_path, "--out", out]) == 0
        split_path = os.path.join(out, "split.txt")
        assert os.path.exists(split_path)
        capsys.readouterr()
        assert cli.main(["inspect-dataset", "--config", cfg_path]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_graphs"] == 30
        assert stats["num_classes"] == 2
        assert stats["feature_scheme"] == "planted-gaussian"

    def test_make_split_rejects_multiclass_tudataset(self, tmp_path, capsys):
        ds = data.make_path_graph_dataset([3] * 30, labels=[0, 1, 2] * 10)
        data.write_tudataset(ds, str(tmp_path), "TRI")
        text = GOOD_CONFIG.replace(
            "dataset.kind = planted",
            f"dataset.kind = tudataset\ndataset.path = {tmp_path}\ndataset.name = TRI",
        )
        cfg_path = tmp_path / "tri.cfg"
        cfg_path.write_text(text)
        out = str(tmp_path / "out")
        assert cli.main(["make-split", "--config", str(cfg_path), "--out", out]) == 1
        assert "requires 2 classes" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "split.txt"))

    def test_split_file_feeds_training(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["make-split", "--config", cfg_path, "--out", out]) == 0
        split_path = os.path.join(out, "split.txt")
        text = GOOD_CONFIG + f"\nsplit.file = {split_path}\n"
        cfg2 = tmp_path / "exp2.cfg"
        cfg2.write_text(text)
        assert cli.main(["train", "--config", str(cfg2), "--out", out]) == 0


# every flag of each subcommand, -h aside, so adding one is a change here
SUBCOMMAND_FLAGS = {
    "train": {"--config", "--seed", "--out", "--dump-allocation", "--dump-gog"},
    "sweep-homophily": {"--config", "--seed", "--out", "--degrees"},
    "theory": {
        "--seed", "--out", "--ordering-trials", "--unbiasedness-trials",
        "--monotonicity-trials", "--t-values", "--replicates", "--json",
    },
    "make-split": {"--config", "--out"},
    "inspect-dataset": {"--config"},
}


def test_subcommand_flags_are_pinned():
    (sub,) = (
        a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: {
            flag for a in p._actions if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        }
        for name, p in sub.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS


# each command line is valid but for the flag, so only the flag can fail it
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["make-split", "--config", "{cfg}", "--out", "{out}", "--seed", "5"], "--seed"),
        (["inspect-dataset", "--config", "{cfg}", "--seed", "3"], "--seed"),
        (["inspect-dataset", "--config", "{cfg}", "--out", "d"], "--out"),
        (["theory", "--out", "{out}", "--config", "c", "--ordering-trials", "20",
          "--unbiasedness-trials", "300", "--monotonicity-trials", "30",
          "--t-values", "1,2,4", "--replicates", "6"], "--config"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_rejected(tmp_path, capsys, argv, flag):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(cfg=cfg_path, out=tmp_path / "out") for a in argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_missing_config_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
