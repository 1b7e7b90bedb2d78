"""Fuzzed experiment configs through the CLI: the exit-code contract holds.

Each example starts from small valid values and replaces one to three fields
with zero, a negative, a non-finite value, an absurd size or garbage.  Sizes
the memory guards would accept stay small, so an example runs in
milliseconds.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latticesde.cli import main

WILD = [0, -1, "nan", "inf", "-inf", "1e12", "1e300"]

# section -> field -> (valid values, wild values)
FIELDS = {
    "geometry": {
        "intensity": ([0.5, 2.0], WILD),
        "box_halfwidth": ([1.0, 3.0], WILD),
        "dim": ([1, 2], [0, -1, 4, "1.5", 10**12]),
        "rho": ([0.5, 1.0], WILD),
        "seed": ([0, 7], [-1, "x", 10**12]),
    },
    "scale": {
        "a_low": ([0.25], WILD),
        "a_high": ([1.0, 2.0], WILD),
        "p": ([4.0, 6.0], WILD),
        "horizon": ([0.1, 0.2], WILD),
        "order": ([0.0, 0.5, 0.9], [0.99, 1.0, -0.5, "nan"]),
    },
    "model": {
        "potential": (["cubic", "linear"], ["quartic"]),
        "potential_param": ([0.5, 1.0], WILD),
        "kernel": (["constant", "triangular"], ["gaussian"]),
        "kernel_cap": ([0.0, 0.05], WILD),
        "sigma0": ([0.0, 0.1], WILD),
        "sigma1": ([0.0, 0.1], WILD),
        "sigma2": ([0.0, 0.02], WILD),
    },
    "simulation": {
        "dt": ([0.01, 0.05], WILD + ["1e-12"]),
        "n_paths": ([1, 5], [0, -1, "2.5", 10**12]),
        "scheme": (["tamed", "explicit"], ["bogus"]),
        "levels": ([3, 4], [0, -1, 10**12]),
        "dump_paths": (["false", "true"], ["maybe"]),
        "zeta": ([0.0, 1.0], WILD),
    },
    "report": {
        "alphas": (["0.5, 1.0", "1.0"], ["", "nan", "-1", "1e12", "0.5, x"]),
    },
}

VALID = st.fixed_dictionaries({
    section: st.fixed_dictionaries({k: st.sampled_from(v) for k, (v, _) in fields.items()})
    for section, fields in FIELDS.items()
})
OVERRIDES = st.lists(
    st.sampled_from([
        (section, k, w) for section, fields in FIELDS.items()
        for k, (_, wild) in fields.items() for w in wild
    ]),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["generate", "simulate", "verify", "picard"]),
    config=VALID,
    overrides=OVERRIDES,
)
def test_fuzzed_config_keeps_exit_contract(command, config, overrides):
    for section, key, value in overrides:
        config[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(
            "".join(
                f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
                for section, values in config.items()
            ),
            encoding="utf-8",
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
