"""Recorded mutation checks: each mutant must be killed by the tests named for it.

A mutant is a file of the tree, an exact text in it, the text that replaces
it, and the ids of tests that must fail once it is replaced. The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, checks
that the named tests pass there unmutated, then applies one mutant at a time,
runs its tests with pytest and restores the file. It reports

* a survivor: a mutant whose tests all still pass;
* a stale mutant: one whose old text is not in its file exactly once (the
  code moved on, so the mutant no longer means what it was written for).

It changes nothing in the tree. Run it from anywhere:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

It exits 0 when every mutant it ran was killed, 1 otherwise. Tier-1 does not
collect it (pytest reads ``tests/`` only). Add the mutants of each change to
``_engine``, ``runtime``, ``kernels``, ``builder``, ``operators`` or
``_exact`` below.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # -- Laurent fast paths in the exact field --------------------------------
    Mutant(
        "laurent-derivative-exponent-k",
        "src/algcpd/_exact.py",
        "for j, c in enumerate(n.nums)], n.den), k + 1)",
        "for j, c in enumerate(n.nums)], n.den), k)",
        ("tests/test_exact.py::test_laurent_derivative_matches_euclid",),
    ),
    Mutant(
        "laurent-product-exponent-minus-one",
        "src/algcpd/_exact.py",
        "return _over_s_power(self.num * other.num, i + j)",
        "return _over_s_power(self.num * other.num, i + j - 1)",
        ("tests/test_exact.py::test_laurent_product_matches_euclid",),
    ),
    # -- the model's smooth basis ---------------------------------------------
    # verify_detector reads the same basis, so only the sliding-window property
    # test sees a basis one power short
    Mutant(
        "smooth-basis-one-short",
        "src/algcpd/builder.py",
        "for v in range(self.n1 + 1)]",
        "for v in range(self.n1)]",
        ("tests/test_builder.py::test_smooth_family_nulled_under_any_shift",),
    ),
    # -- the delay shift of verify_detector -----------------------------------
    Mutant(
        "verify-apply-plus-t0",
        "src/algcpd/builder.py",
        "r = op.apply(w, -t0)",
        "r = op.apply(w, t0)",
        (
            "tests/test_builder.py::test_step_detector_verifies_exactly",
            "tests/test_builder.py::test_verify_reports_every_delay_and_jump_element",
        ),
    ),
    Mutant(
        "verify-no-delay-shift",
        "src/algcpd/builder.py",
        "r = op.apply(w, -t0)",
        "r = op.apply(w)",
        (
            "tests/test_builder.py::test_step_detector_verifies_exactly",
            "tests/test_builder.py::test_verify_reports_every_delay_and_jump_element",
        ),
    ),
    # -- the crossing rule and the gate's direction ---------------------------
    Mutant(
        "lone-zero-without-sign-test",
        "src/algcpd/runtime.py",
        "turn[1:] |= zero & (sign[:-2] * sign[2:] < 0)",
        "turn[1:] |= zero",
        ("tests/test_runtime.py::test_gate_matches_oracle_under_any_partition",),
    ),
    Mutant(
        "gate-direction-from-k-minus-1",
        "src/algcpd/runtime.py",
        "sign = np.where(self.d[col] < 0, 1.0, -1.0)",
        "sign = np.where(self.d[col - 1] > 0, 1.0, -1.0)",
        (
            "tests/test_runtime.py::test_noise_free_reference_changes_found_within_one_sample",
            "tests/test_runtime.py::test_gate_matches_oracle_under_any_partition",
        ),
    ),
    # -- the window engine's short path -----------------------------------------
    Mutant(
        "short-pass-2-pairwise",
        "src/algcpd/_engine.py",
        "    acc = np.add.reduce(sq, axis=0, initial=0.0)\n",
        "    acc = np.stack([np.add.reduce(sq[:, k].copy(), axis=0, initial=0.0) for k in (0, 1)])\n",
        ("tests/test_golden.py::test_golden[short(pc5,normal,snr_db=10,seed=0,W=96,positions=1)]",),
    ),
    # -- the sorted-row MAD -------------------------------------------------------
    Mutant(
        "mads-no-pad-reset",
        "src/algcpd/runtime.py",
        "    for i in short:  # a pad minus an inf median is NaN: pad it again\n"
        "        rows[i, counts[i] :] = np.inf\n",
        "",
        ("tests/test_runtime.py::test_trailing_mad_thresholds_match_batch_mad_scale",),
    ),
    Mutant(
        "mads-no-errstate",
        "src/algcpd/runtime.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n'
        "        return float(_mads(d, n, n)[0])\n",
        "    return float(_mads(d, n, n)[0])\n",
        ("tests/test_runtime.py::test_median_matches_np_median_bit_for_bit",),
    ),
    Mutant(
        "mads-no-group-bound",
        "src/algcpd/runtime.py",
        "group = max(1, _SCREEN_ELEMENTS // self.trailing)",
        "group = max(1, col.size)",
        ("tests/test_runtime.py::test_trailing_mad_gate_temporaries_bounded",),
    ),
    # -- discretization -----------------------------------------------------------
    Mutant(
        "discretize-no-factor-numerator",
        "src/algcpd/kernels.py",
        "if n == 1 else [n * s / d for s in taps[sl]]",
        "if n == 1 else [s / d for s in taps[sl]]",
        ("tests/test_kernels.py::test_discretize_matches_fraction_horner",),
    ),
    Mutant(
        "discretize-simpson-slices-swapped",
        "src/algcpd/kernels.py",
        "            (Fraction(4, 3), slice(1, window - 1, 2)),\n"
        "            (Fraction(2, 3), slice(2, window - 1, 2)),\n",
        "            (Fraction(4, 3), slice(2, window - 1, 2)),\n"
        "            (Fraction(2, 3), slice(1, window - 1, 2)),\n",
        ("tests/test_golden.py::test_golden[monomial(n1=0,n2=0,order=0)]",),
    ),
    # -- operator composition -------------------------------------------------------
    Mutant(
        "compose-chain-one-short",
        "src/algcpd/operators.py",
        "while len(chain) <= top:",
        "while len(chain) < top:",
        ("tests/test_operators.py::test_compose_matches_nested_apply",),
    ),
    # -- the sample bound -------------------------------------------------------------
    Mutant(
        "sample-bound-no-weight-term",
        "src/algcpd/runtime.py",
        "gain = max(collapsed, dd.wnorm * math.sqrt(dd.window), 1.0)",
        "gain = max(dd.wnorm * math.sqrt(dd.window), 1.0)",
        ("tests/test_runtime.py::test_sample_bound_holds_heavy_weights_in_range",),
    ),
)


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for the given node ids in the copied tree. No
    bytecode is written, so a mutant of the same size and mtime second as the
    file it replaced cannot leave a stale .pyc behind."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        tests = sorted({t for m in chosen for t in m.tests})
        code = run_tests(tree, tests)
        if code != 0:
            print(f"the named tests do not pass on the unmutated tree (pytest exit {code})")
            return 1
        for m in chosen:
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: its old text is in {m.path} "
                      f"{text.count(m.old)} times, not once")
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            try:
                code = run_tests(tree, m.tests)
            finally:
                target.write_text(text)
            if code == 1:
                print(f"killed    {m.name}")
            elif code == 0:
                print(f"SURVIVED  {m.name}: {', '.join(m.tests)} all pass")
                bad += 1
            else:
                print(f"ERROR     {m.name}: pytest exit {code} (a missing test id?)")
                bad += 1
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
