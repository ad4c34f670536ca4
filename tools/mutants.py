"""Recorded mutation checks: each mutant must be killed by the tests named for it.

A mutant is a file of the tree, an exact text in it, the text that replaces
it, and the ids of tests that must fail once it is replaced. The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, checks
that the named tests pass there unmutated, then applies one mutant at a time,
runs its tests with pytest and restores the file. A conftest.py in the copy
runs hypothesis without its shrink and explain phases. It reports

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
# written into the copy: any failing example kills a mutant, so its hypothesis
# tests run without the shrink and explain phases, which only polish a failure
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
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
    # -- the jump check of verify_detector ---------------------------------------
    Mutant(
        "verify-drops-the-top-power",
        "src/algcpd/builder.py",
        "for k, r in enumerate(det.omega.delay_expansion(w)):",
        "for k, r in enumerate(det.omega.delay_expansion(w)[:-1]):",
        ("tests/test_builder.py::test_verify_reports_every_delay_and_jump_element",),
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
    # -- the window engine ------------------------------------------------------
    # pass 2 of the short path reduces the squared deviations alone: a single
    # position must keep its zero column, or NumPy sums it pairwise
    Mutant(
        "short-pass-2-pairwise",
        "src/algcpd/_engine.py",
        "ssd = np.add.reduce(dev, axis=0, initial=0.0)[:npos]",
        "ssd = np.add.reduce(dev[:, :npos].copy(), axis=0, initial=0.0)",
        (
            "tests/test_engine_oracle.py::test_engine_matches_scalar_loop",
            "tests/test_golden.py::test_golden[short(pc5,normal,snr_db=10,seed=0,W=96,positions=1)]",
        ),
    ),
    Mutant(
        "short-one-accumulator-pairwise",
        "src/algcpd/_engine.py",
        "dev = terms.reshape(-1)[: window * max(npos, 2)].reshape(window, -1)",
        "dev = terms.reshape(-1)[: window * npos].reshape(window, -1)",
        (
            "tests/test_engine_oracle.py::test_engine_matches_scalar_loop",
            "tests/test_golden.py::test_golden[short(pc5,normal,snr_db=10,seed=0,W=96,positions=1)]",
        ),
    ),
    # only one signal takes the short path, which has no row axis; a block
    # under SHORT positions takes the block path
    Mutant(
        "short-path-takes-blocks",
        "src/algcpd/_engine.py",
        "if signal.ndim == 1 and npos < SHORT:",
        "if npos < SHORT:",
        ("tests/test_engine_oracle.py::test_engine_rows_match_scalar_loop",),
    ),
    # the block path's buffers start on a cache line; unaligned, they give the
    # same bits more slowly, so only the alignment test sees the offset dropped
    Mutant(
        "aligned-without-offset",
        "src/algcpd/_engine.py",
        "skip = (-buf.ctypes.data % 64) // 8",
        "skip = 0",
        ("tests/test_engine_oracle.py::test_block_outputs_start_on_a_cache_line",),
    ),
    Mutant(
        "rms-without-mean-square",
        "src/algcpd/_engine.py",
        "np.add(var, np.multiply(mean, mean, out=out_rms), out=out_rms)",
        "np.add(var, 0.0, out=out_rms)",
        (
            "tests/test_engine_oracle.py::test_engine_matches_scalar_loop",
            "tests/test_engine_oracle.py::test_rms_is_within_gamma_of_the_exact_rms",
        ),
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
        "step = max(1, _SCREEN_ELEMENTS // max(f + 1, self.trailing))",
        "step = max(1, _SCREEN_ELEMENTS // (f + 1))",
        ("tests/test_runtime.py::test_trailing_mad_gate_temporaries_bounded",),
    ),
    # -- discretization -----------------------------------------------------------
    Mutant(
        "collapsed-row-power-off-by-one",
        "src/algcpd/kernels.py",
        "    p = 1.0\n    for row in weights:\n",
        "    p = t_mid\n    for row in weights:\n",
        (
            "tests/test_kernels.py::test_midpoint_collapse",
            "tests/test_engine_oracle.py::test_one_row_v_matches_the_horner_collapse",
        ),
    ),
    Mutant(
        "tap-weights-test-without-bound",
        "src/algcpd/kernels.py",
        "        add(t, S, out=t)\n",
        "",
        ("tests/test_kernels.py::test_tap_weights_decide_ties_and_extremes_on_the_exact_path",),
    ),
    Mutant(
        "tap-weights-no-factor-numerator",
        "src/algcpd/kernels.py",
        "powers[taps] = c.numerator * lc // c.denominator",
        "powers[taps] = lc // c.denominator",
        ("tests/test_kernels.py::test_discretize_matches_fraction_horner",),
    ),
    # every delay row is deflated against its annihilated moments, the delay
    # rows as well as row 0
    Mutant(
        "discretize-delay-row-unprojected",
        "src/algcpd/kernels.py",
        "            if moments:\n",
        "            if moments and vi == 0:\n",
        (
            "tests/test_kernels.py::test_projection_annihilates_in_model_windows",
            "tests/test_kernels.py::test_discretize_matches_fraction_horner_at_4096",
        ),
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
        "compose-slot-without-b",
        "src/algcpd/operators.py",
        "(a - j + b, j, comb(a, j))",
        "(a - j, j, comb(a, j))",
        (
            "tests/test_operators.py::test_compose_matches_nested_apply",
            "tests/test_operators.py::test_commutation_rule",
        ),
    ),
    # -- the one routine behind apply, compose and the delay expansion ----------------
    Mutant(
        "laurent-derivative-chain-exponent-k",
        "src/algcpd/operators.py",
        "return [(i - k) * c for i, c in enumerate(nums)], den, k + 1",
        "return [(i - k) * c for i, c in enumerate(nums)], den, k",
        (
            "tests/test_operators.py::test_laurent_apply_and_delay_expansion_match_rational_arithmetic",
            "tests/test_builder.py::test_step_detector_verifies_exactly",
        ),
    ),
    Mutant(
        "delay-expansion-no-sign",
        "src/algcpd/operators.py",
        "(j + m, a - m, (-1) ** m * comb(a, m))",
        "(j + m, a - m, comb(a, m))",
        (
            "tests/test_operators.py::test_delay_expansion_matches_shifted_apply",
            "tests/test_builder.py::test_step_detector_verifies_exactly",
        ),
    ),
    Mutant(
        "delay-expansion-power-j",
        "src/algcpd/operators.py",
        "(j + m, a - m, (-1) ** m * comb(a, m))",
        "(j, a - m, (-1) ** m * comb(a, m))",
        (
            "tests/test_operators.py::test_delay_expansion_matches_shifted_apply",
            "tests/test_builder.py::test_step_detector_verifies_exactly",
        ),
    ),
    Mutant(
        "delay-expansion-no-binomial",
        "src/algcpd/operators.py",
        "(j + m, a - m, (-1) ** m * comb(a, m))",
        "(j + m, a - m, (-1) ** m)",
        (
            "tests/test_operators.py::test_delay_expansion_matches_shifted_apply",
            "tests/test_builder.py::test_step_detector_verifies_exactly",
        ),
    ),
    # the one derivative chain of each operand that every row of apply, the
    # coefficientwise apply, the delay expansion and compose shares
    Mutant(
        "apply-chain-one-short",
        "src/algcpd/operators.py",
        "for _ in range(max((d for _, terms in rows for _, d, _ in terms), default=0)):",
        "for _ in range(max((d for _, terms in rows for _, d, _ in terms), default=0) - 1):",
        (
            "tests/test_builder.py::test_step_detector_verifies_exactly",
            "tests/test_builder.py::test_verify_reports_every_delay_and_jump_element",
        ),
    ),
    # compose has one part per coefficient of the right operand: each needs its own chain
    Mutant(
        "compose-shares-the-first-chain",
        "src/algcpd/operators.py",
        "chain = [g if laurent else f]",
        "chain = [lifted[0][1] if laurent else parts[0][0]]",
        (
            "tests/test_operators.py::test_compose_matches_nested_apply",
            "tests/test_builder.py::test_step_detector_verifies_exactly",
        ),
    ),
    # to_integral_form moves each coefficient's power of s by N. One power too
    # many is still a left multiple, which annihilates the model as well, so
    # verify_detector passes it; the operator's text does not
    Mutant(
        "integral-form-shift-one-deep",
        "src/algcpd/operators.py",
        "_over_s_power(rho.num, rho.den.degree + n)",
        "_over_s_power(rho.num, rho.den.degree + n + 1)",
        (
            "tests/test_operators.py::test_to_integral_form",
            "tests/test_golden.py::test_golden[monomial(n1=0,n2=0,order=0)]",
        ),
    ),
    Mutant(
        "laurent-mac-unscaled-product",
        "src/algcpd/operators.py",
        "            b *= scale\n",
        "",
        ("tests/test_operators.py::test_laurent_apply_and_delay_expansion_match_rational_arithmetic",),
    ),
    # -- the sample bound -------------------------------------------------------------
    Mutant(
        "sample-bound-no-weight-term",
        "src/algcpd/runtime.py",
        "gain = max(dd.wnorm * math.sqrt(dd.window), 1.0)",
        "gain = 1.0",
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
        (tree / "conftest.py").write_text(CONFTEST)
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
