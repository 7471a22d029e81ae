"""metrics.csv pinned byte for byte.

Tiny configurations of every algorithm on synthetic, hard_uniform and a
small stand-in ranking file (d = 20). The digests were recorded when
``run_trial`` still refitted while collecting one step at a time; they are
the same at one and at two BLAS threads. A change that moves any of them
changes the numbers every experiment reports.
"""

import hashlib

import pytest

from mixplan import RunConfig, run_experiment

ENVIRONMENTS = {
    "synthetic": dict(environment="synthetic", N=40, eval_every=15, eval_set_size=30),
    "hard_uniform": dict(environment="hard_uniform", N=40, eval_every=15, eval_set_size=30,
                         n_actions=6),
    "stand_in": dict(environment="stand_in", N=30, eval_every=10, standin_queries=40,
                     rank_raw_dim=60, rank_subsampled_dim=20),
}

DIGESTS = {
    ("synthetic", "planner_sampler"): "f1f3bfb660b0295e0aea99785b4ff3dae185fcc8c4981fc76b045ad738924f0e",
    ("synthetic", "random"): "e69d0260b4342d37aa86b88a3399d3d5f35856de90aea1af330227509f3e22fb",
    ("synthetic", "largest_norm"): "d07aeca3661e0c7daab10c4fb2f75c6c348cd7380a4b1293c84fa83aacad63fe",
    ("synthetic", "single_action"): "24aa94204f4b223ebd6597254d4e39ad0595d1e376bd1a4c525c9267ddc3e417",
    ("synthetic", "supervised_oracle"): "05422ecebfc7926adb81ed4617fbc576003c144c35d95ea23dac10d77fde7772",
    ("hard_uniform", "planner_sampler"): "afe0b3b318a60bdbfe48acf91f10c876aaf1afac63faae45052c0648afef31a0",
    ("hard_uniform", "random"): "b9e9468b237b4ee1f72fe01bfd247ce086c13cee96be8a51c9b46c3fa53b8850",
    ("hard_uniform", "largest_norm"): "099a71daecea2ca5a92bb2865fed7995f049986a5980b37c30dd5565068f8d50",
    ("hard_uniform", "single_action"): "099a71daecea2ca5a92bb2865fed7995f049986a5980b37c30dd5565068f8d50",
    ("hard_uniform", "supervised_oracle"): "88b498cd896767497ba433398e57b35dc9846eec64f0ae17d7bef922c03f1d40",
    ("stand_in", "planner_sampler"): "b1ef3502da808e4033d645efc199d00ceebf5b17bd4d909f96f91c64249b272f",
    ("stand_in", "random"): "82942218092aa0a5a4040ddba8ebdadc470f21e7e49b7401553d100e2c6c7aea",
    ("stand_in", "largest_norm"): "81c64541c7059ffbd8ee0c6b4621a77b3636c8e4583e0e654c8f5eb962286f49",
    ("stand_in", "single_action"): "33f95d443f67bde1c67993447f4ac9d4f28639042756b9d77ac1221c93f31c18",
    ("stand_in", "supervised_oracle"): "fc5fe0e89027d784544d43b38eabde1c665b98a3f41dff73cdedef38a7fea503",
}


@pytest.fixture(scope="module")
def standin_path(tmp_path_factory):
    return tmp_path_factory.mktemp("standin") / "standin.txt"


@pytest.mark.parametrize("environment, algorithm", sorted(DIGESTS))
def test_metrics_csv_matches_recorded_digest(environment, algorithm, standin_path, tmp_path):
    fields = dict(ENVIRONMENTS[environment])
    if environment == "stand_in":
        fields["data_path"] = str(standin_path)
    config = RunConfig(algorithm=algorithm, seed=3, n_trials=2,
                       output_path=str(tmp_path / "out"), **fields)
    result = run_experiment(config)
    digest = hashlib.sha256(result.metrics_path.read_bytes()).hexdigest()
    assert digest == DIGESTS[environment, algorithm]
