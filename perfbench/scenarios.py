"""Generated scenario text for the benchmark.

The wide scenario has N single-phase task families `t{i}/handle`, each with
difficulty -1.1 and one latent procedure of effect 2.4; the latents cycle
through three causes.  The manager has capacity 1 and one worker covers the
whole task space at capacity 3, as in the `mismatch` preset, so the library
has to outgrow the seed organization.  Growing N grows the library, which is
where the engine scales worst.
"""

from __future__ import annotations

WIDE_CAUSES = ("missing-precondition", "misleading-retrieval", "wrong-action-order")


def wide_scenario(n_families: int, episodes_per_round: int) -> str:
    """Scenario document with `n_families` single-phase families."""
    if n_families < 1:
        raise ValueError("the wide scenario needs at least one family")
    families = [f"t{i}" for i in range(n_families)]
    lines = [
        f"# Wide world: {n_families} single-phase families, one latent each.",
        "[tasks]",
        *(f"{t} = handle | 1.0" for t in families),
        "",
        "[difficulty]",
        *(f"{t}/handle = -1.1" for t in families),
        "",
        "[latent]",
        *(
            f"ls-{t} = {t}/handle 2.4 {WIDE_CAUSES[i % len(WIDE_CAUSES)]}"
            for i, t in enumerate(families)
        ),
        "",
        "[penalties]",
        "interference     = 0.25",
        "overload         = 0.6",
        "routing-noise    = 0.1",
        "cause-confidence = 0.9",
        "",
        "[seed-state]",
        "executor manager  = * capacity=1 manager",
        "executor worker-a = " + ",".join(f"{t}/handle" for t in families) + " capacity=3",
        "",
        "[thresholds]",
        f"episodes-per-round = {episodes_per_round}",
    ]
    return "\n".join(lines) + "\n"
