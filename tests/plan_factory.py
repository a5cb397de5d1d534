"""Hand-written plans for tests, built the one way plans are built.

:func:`listed_plan` spells a plan as a list of groups and hands it to
:func:`repro.core.plan.assemble_plan`, so every test plan -- hand-built
or compiled -- comes out of the same assembler.
"""

import numpy as np

from repro.core.plan import assemble_plan


def listed_plan(groups, sources, *, out_index=None, numerics=True):
    """A plan from ``[(targets, [(kind, key), ...]), ...]``.

    ``sources[key]`` is the ``(rows, 3)`` points of a share key, or
    with ``numerics=False`` its row count (a model-only plan, whose
    groups give their row count in place of ``targets``).  Keys are any
    hashables; ``weight_slots`` records them as given.  Output slots
    default to consecutive rows.
    """
    names = list(sources)
    code = {key: i for i, key in enumerate(names)}
    segs = [seg for _, group in groups for seg in group]
    kinds = list(dict.fromkeys(kind for kind, _ in segs))
    sizes = [len(t) if numerics else t for t, _ in groups]
    structure = (
        sum(sizes),
        sizes,
        np.repeat(np.arange(len(groups)), [len(g) for _, g in groups]),
        [kinds.index(kind) for kind, _ in segs],
        kinds,
        [code[key] for _, key in segs],
        [len(sources[k]) if numerics else sources[k] for k in names],
    )
    if not numerics:
        return assemble_plan(*structure)
    return assemble_plan(
        *structure,
        targets=np.concatenate([t for t, _ in groups] + [np.empty((0, 3))]),
        out_index=np.arange(sum(sizes)) if out_index is None else out_index,
        key_points=lambda codes: np.concatenate(
            [sources[names[c]] for c in codes.tolist()]
        ),
        share_keys=lambda codes: [names[c] for c in codes.tolist()],
    )
