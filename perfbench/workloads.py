"""The three benchmark workloads: inputs, operations and correctness oracles.

Every workload draws its inputs from a ``numpy`` generator seeded by the
benchmark seed; finslerlab only ever sees the generated inputs (CLI seeds,
base points, directions).  Every operation is a whole round of the
same work (one CLI command; one flag point of each family), so every run
attempts whole rounds.

The oracles compare each result with a closed form or with a property the
method must have; they never compare with a stored copy of earlier output.
Each oracle returns a list of failure messages, empty when the operation is
correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

# Tolerances of the identity checks as documented in the project README.
# They are written out here, not read from the program, so that a change to
# the program's defaults cannot relax the benchmark's oracle.
CHECK_TOLERANCES = {"eq-2.1": 1e-5, "eq-2.2": 1e-4, "eq-1.11": 1e-5, "eq-1.12": 1e-5}
ROUNDOFF = 1e-9  # "exact to roundoff"; relative to max(1, size of the terms) where scaled
S_ROUTES_TOL = 1e-7

# Set-up inputs are fixed, independent of the benchmark seed, so that set-up
# time measures the same work on every run.
SETUP_SEED = 20221026


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``finslerlab.cli.main`` in-process and capture the report it writes."""
    from finslerlab import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _scaled(value: float, *terms) -> float:
    return abs(value) / max(1.0, *(float(np.max(np.abs(t))) for t in terms))


class CheckRanders3:
    """``finslerlab check --metric randers --dim 3``, then eq-2.5 at the same points."""

    name = "check-randers3"
    base_points = 2
    samples = 4
    points_per_op = base_points * samples

    def build(self) -> None:
        from finslerlab import zoo

        self.model = zoo.build("randers", 3)

    def _argv(self, seed: int, base_points: int, samples: int) -> list[str]:
        return [
            "check", "--metric", "randers", "--dim", "3", "--volume", "lebesgue",
            "--base-points", str(base_points), "--samples", str(samples), "--seed", str(seed),
        ]

    def first(self):
        """The smallest result of this workload, used to time set-up."""
        return self._run(SETUP_SEED, 1, 1)

    def inputs(self, rng):
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def run(self, seed: int):
        return self._run(seed, self.base_points, self.samples)

    def _run(self, seed: int, base_points: int, samples: int):
        from finslerlab import checks, indicatrix

        code, report = cli_call(self._argv(seed, base_points, samples))
        # the CLI's own sampling, replayed to reach the same fibre points
        rng = np.random.default_rng(seed)
        ricci = []
        for x in checks.sample_base_points(self.model, base_points, rng):
            for point in indicatrix.sample_fibre_points(self.model, x, samples, rng):
                ricci.append(float(np.max(np.abs(checks.check_ricci(self.model, point)))))
        return code, report, ricci

    def report_bytes(self, result) -> int:
        return len(result[1].encode())

    def check(self, seed: int, result) -> list[str]:
        code, report, ricci = result
        if code != 0:
            return [f"check exited {code}"]
        doc = json.loads(report)
        failures = []
        tags = sorted(block["tag"] for block in doc["checks"])
        if tags != sorted(CHECK_TOLERANCES):
            failures.append(f"check tags {tags}")
        for block in doc["checks"]:
            tol = CHECK_TOLERANCES.get(block["tag"], 0.0)
            if not block["max_residual"] <= tol:
                failures.append(f"{block['tag']} residual {block['max_residual']:.3e} > {tol}")
            if len(block["points"]) != self.points_per_op:
                failures.append(f"{block['tag']} has {len(block['points'])} points")
        if len(ricci) != self.points_per_op:
            failures.append(f"eq-2.5 evaluated at {len(ricci)} points")
        worst = max(ricci, default=math.inf)
        if not worst <= ROUNDOFF:
            failures.append(f"eq-2.5 residual {worst:.3e} is not at roundoff")
        return failures


class AuditFunk4BH:
    """``finslerlab audit --metric funk_ball --dim 4 --volume bh``."""

    name = "audit-funk4-bh"
    dim = 4
    base_points = 1
    samples = 3
    points_per_op = base_points * samples

    def build(self) -> None:
        from finslerlab import zoo

        self.model = zoo.build("funk_ball", self.dim, volume="bh")

    def _argv(self, seed: int, samples: int) -> list[str]:
        return [
            "audit", "--metric", "funk_ball", "--dim", str(self.dim), "--volume", "bh",
            "--base-points", str(self.base_points), "--samples", str(samples),
            "--seed", str(seed),
        ]

    def first(self):
        return cli_call(self._argv(SETUP_SEED, 1))

    def inputs(self, rng):
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def run(self, seed: int):
        return cli_call(self._argv(seed, self.samples))

    def report_bytes(self, result) -> int:
        return len(result[1].encode())

    def check(self, seed: int, result) -> list[str]:
        from finslerlab import core

        code, report = result
        if code != 0:
            return [f"audit exited {code}"]
        n = self.dim
        e_exact = (n * n - 1) / 2.0
        c_exact = (n + 1) / 2.0
        audits = json.loads(report)["audits"]
        failures = []
        if len(audits) != self.base_points:
            failures.append(f"{len(audits)} audit records")
        for record in audits:
            schur = record["schur"]
            if schur["verdict"] != "isotropic-and-constant":
                failures.append(f"verdict {schur['verdict']}")
            if schur["samples"] != self.samples:
                failures.append(f"audit sampled {schur['samples']} points")
            for key in ("e_min", "e_max"):
                if not abs(schur[key] - e_exact) <= 1e-5:
                    failures.append(f"{key} = {schur[key]!r}, expected {e_exact}")
            weak = record.get("weak_isotropy")
            if weak is None:
                failures.append("no weak-isotropy record")
            else:
                if not abs(weak["c"] - c_exact) <= 1e-5:
                    failures.append(f"c = {weak['c']!r}, expected {c_exact}")
                if not weak["max_hessian_residual"] <= 1e-5:
                    failures.append(f"weak-isotropy residual {weak['max_hessian_residual']:.3e}")
            # The Funk unit set at x is the unit ball translated by -x, so the
            # Busemann-Hausdorff coefficient is exactly 1.
            sigma = core.sigma_value(self.model, np.asarray(record["x"]))
            if not abs(sigma - 1.0) <= 1e-6:
                failures.append(f"sigma_BH = {sigma!r}, expected 1")
        return failures


ZOO_FAMILIES = (
    # (family, params, volume, radius of the base-point ball)
    ("euclidean", {}, None, 1.0),
    ("minkowski_quartic", {}, None, 1.0),
    (
        "riemannian",
        {"a11": "exp(x1)", "a22": "1 + x2^2", "a33": "2 + x1*x3", "a12": "0.3*x3"},
        "auto",
        0.8,
    ),
    ("randers", {}, None, 0.8),
    ("funk_ball", {}, None, 0.8),
)


class TensorsZoo3:
    """``core.coordinate_tensors`` plus ``core.s_curvature_alt`` at one flag
    point of each of five families at n = 3; one operation is that round."""

    name = "tensors-zoo3"
    dim = 3
    points_per_op = len(ZOO_FAMILIES)

    def build(self) -> None:
        from finslerlab import zoo

        self.models = {
            family: zoo.build(family, self.dim, params, volume)
            for family, params, volume, _ in ZOO_FAMILIES
        }

    def _round(self, rng) -> list:
        """One flag point per family, each with a base point of its own."""
        n = self.dim
        points = []
        for family, _, _, radius in ZOO_FAMILIES:
            direction = rng.standard_normal(n)
            x = direction / np.linalg.norm(direction) * radius * rng.uniform() ** (1.0 / n)
            while True:
                y = rng.standard_normal(n)
                norm = np.linalg.norm(y)
                # the quartic g degenerates on the coordinate axes (zoo notes)
                if norm > 0.1 and (
                    family != "minkowski_quartic" or np.min(np.abs(y)) / norm > 0.02
                ):
                    break
            points.append((family, x, y))
        return points

    def first(self):
        return self.run(self._round(np.random.default_rng(SETUP_SEED)))

    def inputs(self, rng):
        while True:
            yield self._round(rng)

    def run(self, points):
        from finslerlab import core

        results = []
        for family, x, y in points:
            model = self.models[family]
            flag = core.FlagPoint(x, y)
            results.append((core.coordinate_tensors(model, flag), core.s_curvature_alt(model, flag)))
        return results

    def report_bytes(self, result) -> int:
        return 0  # no CLI in this workload

    def check(self, points, results) -> list[str]:
        failures = []
        for point, result in zip(points, results):
            failures.extend(self._check_point(point, result))
        return failures

    def _check_point(self, point, result) -> list[str]:
        from finslerlab import zoo

        family, x, y = point
        tensors, s_alt = result
        f = tensors.f
        failures = []

        def expect(label: str, residual: float, tol: float = ROUNDOFF):
            if not residual <= tol:
                failures.append(f"{family}: {label} residual {residual:.3e} > {tol}")

        cartan_y = np.einsum("ijk,k->ij", tensors.cartan, y)
        expect("g(y, y) = F^2", abs(y @ tensors.g @ y - f * f) / (f * f))
        expect("A(., ., y) = 0", _scaled(np.max(np.abs(cartan_y)), tensors.cartan, y))
        expect("E(., y) = 0", _scaled(np.max(np.abs(tensors.mean_berwald @ y)), tensors.mean_berwald, y))
        expect("S routes", _scaled(tensors.s - s_alt, tensors.s), S_ROUTES_TOL)
        if family == "funk_ball":
            expect("F = funk_norm", abs(f - zoo.funk_norm(x, y)) / f)
            expect("S = (n+1)/2 F", _scaled(tensors.s - (self.dim + 1) / 2.0 * f, f))
        elif family == "riemannian":
            expect("A = 0", _scaled(np.max(np.abs(tensors.cartan)), tensors.g))
            expect("E = 0", _scaled(np.max(np.abs(tensors.mean_berwald)), tensors.g))
            expect("S = 0", abs(tensors.s))
        elif family in ("euclidean", "minkowski_quartic"):
            expect("spray = 0", float(np.max(np.abs(tensors.spray))))
            expect("E = 0", float(np.max(np.abs(tensors.mean_berwald))))
        return failures


WORKLOADS = {w.name: w for w in (CheckRanders3, AuditFunk4BH, TensorsZoo3)}
