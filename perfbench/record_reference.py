"""Record the reference outcomes every benchmark run re-checks.

Run from the repository root after a deliberate change to the program's
numerics (the frozen policy is trained separately by
``train_policy.py``)::

    python3 perfbench/record_reference.py

writes ``perfbench/data/reference.json``: the ``train_tia`` reward curve,
the ``deploy_opamp`` reached count and sims-to-success, the
``ga_pex_opamp`` outcome per target, all at a fixed reference seed, and
the sparse-mesh specs of ``mesh_walk`` at the grid centre.
"""

from __future__ import annotations

import json

import isolate


def main() -> None:
    isolate.require_program()
    import workloads

    reference = {name: cls(workloads.REF_SEED).reference_case()
                 for name, cls in workloads.WORKLOADS.items()}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
