"""The simulated environments are one table, ``environments.SIMULATED``,
read by both the harness and the CLI; the CLI's stages hand their files to
each other whatever the locale.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from mixplan import RunConfig, cli, environments, harness
from mixplan.environments import SPLIT_FILES, generate_standin_file
from mixplan.harness import _prepare_trial_env, _trial_seeds

SRC = Path(__file__).resolve().parent.parent / "src"
RANKING = ("rank_dataset", "stand_in")


def _env_choices(command):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if a.dest == "env").choices


def test_every_environment_and_algorithm_keeps_its_name_and_place():
    assert harness.ENVIRONMENTS == (
        "synthetic", "hard_uniform", "hard_goptimal", "rank_dataset", "stand_in")
    assert harness.ALGORITHMS == (
        "planner_sampler", "random", "largest_norm", "single_action", "supervised_oracle")
    for command in ("plan", "sample", "eval"):
        assert tuple(_env_choices(command)) == (
            "synthetic", "hard_uniform", "hard_goptimal", "rank_dataset")


def _trial_config(environment, data_path):
    return RunConfig(environment=environment, algorithm="random", N=8, eval_set_size=5,
                     rank_raw_dim=20, rank_subsampled_dim=6,
                     data_path=str(data_path) if environment in RANKING else None)


def _plan_synthetic(tmp_path):
    return cli.main(["plan", "--env", "synthetic", "--M", "40", "--seed", "3",
                     "--out", str(tmp_path / "policy.npz")])


def test_only_synthetic_plans_without_a_norm_cap(tmp_path):
    ranking = generate_standin_file(tmp_path / "rank.txt", n_queries=12, seed=5, raw_dim=20)
    for environment in harness.ENVIRONMENTS:
        config = _trial_config(environment, ranking)
        env = _prepare_trial_env(config, _trial_seeds(config, 0))
        assert env.norm_cap == (None if environment == "synthetic" else 1.0), environment
    # A cap of 1 would refuse the synthetic spikes (exit 2).
    assert _plan_synthetic(tmp_path) == 0


def test_the_harness_and_the_cli_read_the_cap_from_the_table(tmp_path):
    build, _ = environments.SIMULATED["synthetic"]
    with mock.patch.dict(environments.SIMULATED, synthetic=(build, 1.0)):
        config = _trial_config("synthetic", None)
        assert _prepare_trial_env(config, _trial_seeds(config, 0)).norm_cap == 1.0
        assert _plan_synthetic(tmp_path) == 2


def test_dataset_csv_is_utf8_under_an_ascii_locale(tmp_path):
    data = tmp_path / "ranking"
    data.mkdir()
    for i, name in enumerate(SPLIT_FILES):
        generate_standin_file(data / name, n_queries=4, seed=30 + i, raw_dim=10)
    train = data / "train.txt"
    train.write_bytes(train.read_bytes().replace(b"qid:0 ", "qid:é ".encode("utf-8")))

    env = {name: value for name, value in os.environ.items()
           if not name.startswith(("LC_", "PYTHON"))}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(SRC))
    rank = ["--env", "rank_dataset", "--data-path", str(data), "--raw-dim", "10",
            "--subsampled-dim", "4", "--seed", "1"]
    dataset = tmp_path / "ds.csv"
    for argv in (["plan", *rank, "--M", "4", "--out", str(tmp_path / "policy.npz")],
                 ["sample", *rank, "--policy", str(tmp_path / "policy.npz"), "--N", "4",
                  "--out", str(dataset)],
                 ["fit", "--dataset", str(dataset), "--out", str(tmp_path / "est.npz")]):
        proc = subprocess.run([sys.executable, "-m", "mixplan.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv[0], proc.stderr)
    lines = dataset.read_bytes().decode("utf-8").splitlines()
    assert any(line.startswith("é,") for line in lines)
