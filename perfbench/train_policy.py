"""Train and freeze the op-amp policy that the ``deploy_opamp`` workload loads.

Run once from the repository root; the outputs are committed::

    python3 perfbench/train_policy.py

writes ``perfbench/data/opamp_policy.npz`` (bare policy weights) and
``perfbench/data/opamp_policy.json`` (its sha256, the full training
configuration and the training outcome).  The deploy workload refuses a
policy whose hash does not match the recorded one, so deploy metrics
never depend on training numerics or on any on-disk cache.

The configuration is the benchmark suite's op-amp agent: PPO with 10
envs x 60 steps, 8 epochs, minibatch 64, lr 5e-4, entropy 0.003, paper
network 3x50 tanh, 50 training targets, trajectories of 30 steps, stop
at a mean episode reward of 3.0 held for 3 iterations (at most 220).
"""

from __future__ import annotations

import hashlib
import json
import time

import isolate

POLICY = isolate.DATA / "opamp_policy.npz"
POLICY_META = isolate.DATA / "opamp_policy.json"
TRAIN_SEED = 0


def opamp_config():
    """The frozen policy's training configuration."""
    from repro.core import AutoCktConfig, SizingEnvConfig
    from repro.rl.ppo import PPOConfig

    return AutoCktConfig(
        ppo=PPOConfig(n_envs=10, n_steps=60, epochs=8, minibatch_size=64,
                      lr=5e-4, ent_coef=0.003, seed=TRAIN_SEED),
        env=SizingEnvConfig(max_steps=30),
        n_train_targets=50, max_iterations=220, stop_reward=3.0,
        stop_patience=3, seed=TRAIN_SEED)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    isolate.require_program()
    from repro.config import autockt_to_dict
    from repro.core import AutoCkt
    from repro.topologies import TwoStageOpAmp

    config = opamp_config()
    agent = AutoCkt.for_topology(TwoStageOpAmp, config=config)
    started = time.perf_counter()
    history = agent.train()
    wall = time.perf_counter() - started
    isolate.DATA.mkdir(exist_ok=True)
    agent.save_policy(str(POLICY))
    meta = {
        "topology": "TwoStageOpAmp",
        "sha256": sha256_of(POLICY),
        "config": autockt_to_dict(config),
        "training": {
            "iterations": len(history.iterations),
            "env_steps": agent.training_env_steps,
            "final_mean_reward": history.final_mean_reward,
            "stopped_early": history.stopped_early,
            "wall_s": round(wall, 1),
        },
    }
    POLICY_META.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(json.dumps(meta["training"]))


if __name__ == "__main__":
    main()
