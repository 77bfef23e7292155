"""Per-layer probes: each module's public functions timed on fixed inputs.

The probes do not depend on the workload or the seed, so two commits can be
compared layer by layer from a traced run of any workload. Each traced run
repeats them, because each must report every per-layer metric; they take a
few seconds. The tier-1 test suite, which takes most of a minute, runs once,
in the traced ``cli`` run (see :meth:`Probes.tier1`). Every probe result is
checked against :mod:`oracle` as well.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle as ref
from workloads import CliWorkload, matrix_of, named_graphs, signed_graph_of

KERNEL_CASES = {7: (5, 1), 17: (13, 3), 33: (29, 3), 65: (61, 3)}  # n -> (q, case)
SEARCH_GRAPHS = {6: "K6", 8: "K4,4", 10: "Petersen"}  # n -> graph for us_per_class


class Probes:
    """Collects ``name -> (value, unit)`` plus any oracle disagreement."""

    def __init__(self, gs, scratch: Path, tier1_deadline: float):
        self.gs = gs
        self.tier1_deadline = tier1_deadline  # perf_counter() value
        self.scratch = scratch
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []
        self.checks = 0
        self.notes: dict = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def expect(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def timed_ms(self, fn, repeats: int):
        """Median wall time in ms over ``repeats`` calls, and the last result."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            out = fn()
            times.append(perf_counter() - t0)
        return statistics.median(times) * 1e3, out

    def run_all(self) -> None:
        with warnings.catch_warnings(record=True) as caught:  # keep them off stderr
            warnings.simplefilter("always")
            self.kernel()
            self.search()
            self.constructions()
            self.io()
            self.cli()
        self.notes["probe_warnings"] = len(caught)

    # -- spectra ---------------------------------------------------------------

    def kernel(self) -> None:
        gs = self.gs
        mats = {n: ref.case_signing(*qc) for n, qc in KERNEL_CASES.items()}
        mats[10] = ref.optimal_signing(10, named_graphs()[2][2])
        rotations = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # inside run_all's catch: counts this probe only
            for n in sorted(mats):
                a = mats[n]
                ms, result = self.timed_ms(lambda: gs.jacobi_diagonalize(a), 5 if n <= 17 else 3 if n <= 33 else 1)
                self.expect(ref.close(result.eigenvalues, ref.spectrum(a)), f"eigenvalues at n={n} differ from eigvalsh")
                self.put(f"spectra.eigvals_ms.n{n}", ms, "ms")
                self.put(f"spectra.sweeps.n{n}", result.sweeps, "count")
                rotations += result.sweeps * n * (n - 1) // 2
        self.put("spectra.rotations_computed", rotations, "count")
        self.put("spectra.numeric_warnings", sum(issubclass(w.category, RuntimeWarning) for w in caught), "count")

    # -- search ----------------------------------------------------------------

    def search(self) -> None:
        gs = self.gs
        spectra = gs.spectra
        kernel = getattr(spectra, "_jacobi_sweeps", None)
        graphs = {label: (n, edges) for label, n, edges in named_graphs()}
        total_classes = total_s = overhead_s = 0.0
        jobs1 = jobs2 = 0.0
        scanned = classes_all = 0
        for n, label in SEARCH_GRAPHS.items():
            _, edges = graphs[label]
            g = gs.Graph.from_edges(n, edges)
            rhos, patterns, free = ref.class_rhos(n, edges)
            t0 = perf_counter()
            result = gs.min_rho(g)
            elapsed = perf_counter() - t0
            self.expect(abs(result.best_rho - rhos.min()) <= ref.TOL, f"min_rho({label}) differs from eigvalsh")
            self.put(f"search.us_per_class.n{n}", elapsed / rhos.size * 1e6, "us")
            total_classes += rhos.size
            total_s += elapsed
            overhead_s += elapsed - self._kernel_seconds(kernel, n, edges, free, patterns)
            if label in ("K6", "K4,4"):
                t0 = perf_counter()
                parallel = gs.min_rho(g, jobs=2)
                jobs2 += perf_counter() - t0
                jobs1 += elapsed
                self.expect(abs(parallel.best_rho - result.best_rho) <= ref.TOL, f"jobs=2 changed min_rho({label})")
        for label, (n, edges) in graphs.items():
            rhos, _, _ = ref.class_rhos(n, edges)
            found = gs.find_good_signing(gs.Graph.from_edges(n, edges))
            if found is None:
                self.expect(not ref.is_good(rhos.min(), ref.bound(2 * len(edges) // n)), f"no good signing of {label}")
                scanned += rhos.size
            else:
                scanned += ref.package_class_index(n, edges, matrix_of(found)) + 1
            classes_all += rhos.size
        self.put("search.overhead_us_per_class", overhead_s / total_classes * 1e6, "us")
        self.put("search.classes_per_s", total_classes / total_s, "1/s")
        self.put("search.first_good_fraction", scanned / classes_all, "ratio")
        self.put("search.jobs2_speedup", jobs1 / jobs2, "ratio")

    def _kernel_seconds(self, kernel, n, edges, free, patterns) -> float:
        """Time the bare eigen kernel over every class matrix of one graph."""
        mats = [ref.class_signing(n, edges, free, p).astype(np.float64) for p in patterns]
        work = np.empty((n, n))
        spectra = self.gs.spectra
        t0 = perf_counter()
        for a in mats:
            if kernel is None:
                spectra.spectral_radius(a)
            else:
                np.copyto(work, a)
                kernel(work, spectra.JACOBI_RELATIVE_TOLERANCE, spectra.JACOBI_MAX_SWEEPS)
        return perf_counter() - t0

    # -- constructions, partition, conference, graphs ---------------------------

    def constructions(self) -> None:
        gs = self.gs
        reps = 5
        ms, c = self.timed_ms(lambda: gs.paley_conference(61), reps)
        self.put("conference.paley_ms", ms, "ms")
        ms, ok = self.timed_ms(lambda: gs.verify_conference(c.matrix), reps)
        self.put("conference.verify_ms", ms, "ms")
        self.expect(ok is True and np.array_equal(c.matrix, ref.paley(61)), "Paley q=61 differs")

        a = ref.case_signing(61, 3)
        ms, sg = self.timed_ms(lambda: gs.sign_complete_from_conference(c, 3), reps)
        self.put("constructions.sign_complete_ms", ms, "ms")
        ms, adj = self.timed_ms(lambda: gs.signed_adjacency(sg), reps)
        self.put("graphs.signed_adjacency_ms", ms, "ms")
        self.expect(np.array_equal(adj, a), "sign_complete q=61 case 3 differs")
        signs = dict(sg.signs)
        ms, _ = self.timed_ms(lambda: gs.SignedGraph(sg.graph, signs), reps)
        self.put("graphs.signed_graph_ms", ms, "ms")

        ms, lex = self.timed_ms(lambda: gs.lex_k4_signing(sg.graph, sg), 3)
        self.put("constructions.lex_k4_ms", ms, "ms")
        self.expect(np.array_equal(gs.signed_adjacency(lex), ref.lex_k4(a)), "lex_k4 n=260 differs")

        a13 = ref.case_signing(13, 3)
        d13 = np.array([1 if i % 3 else -1 for i in range(a13.shape[0])])
        s13, p13 = signed_graph_of(gs, a13), signed_graph_of(gs, d13[:, None] * a13 * d13[None, :])
        ms, lift = self.timed_ms(lambda: gs.two_lift_signed(s13.graph, s13, p13), reps)
        self.put("constructions.two_lift_signed_ms", ms, "ms")
        self.expect(np.array_equal(gs.signed_adjacency(lift), ref.two_lift(a13, matrix_of(p13))), "2-lift differs")

        d = np.array([1 if i % 2 else -1 for i in range(a.shape[0])])
        switched = signed_graph_of(gs, d[:, None] * a * d[None, :])
        flipped_a = a.copy()
        flipped_a[5, 9] = flipped_a[9, 5] = -a[5, 9]
        flipped = signed_graph_of(gs, flipped_a)
        ms, diag = self.timed_ms(lambda: gs.signing_equivalence(sg.graph, sg, switched), reps)
        self.put("constructions.signing_equivalence_ms", ms, "ms")
        self.expect(diag is not None and ref.is_switching(a, matrix_of(switched), diag), "switching not recovered")
        ms, cycle = self.timed_ms(lambda: gs.switching_witness_cycle(sg.graph, sg, flipped), reps)
        self.put("constructions.witness_cycle_ms", ms, "ms")
        self.expect(cycle is not None and ref.is_witness_cycle(a, flipped_a, cycle), "bad witness cycle")

        cells = gs.case_cells(3, 62)
        ms, (equitable, _) = self.timed_ms(lambda: gs.is_equitable(sg, cells), reps)
        self.put("partition.is_equitable_ms", ms, "ms")
        ms, b = self.timed_ms(lambda: gs.quotient_matrix(sg, cells), reps)
        self.put("partition.quotient_matrix_ms", ms, "ms")
        ms, identity = self.timed_ms(lambda: gs.verify_quotient_identity(sg, cells, b), reps)
        self.put("partition.verify_identity_ms", ms, "ms")
        ms, qeig = self.timed_ms(lambda: gs.quotient_eigenvalues(b), reps)
        self.put("partition.quotient_eigenvalues_ms", ms, "ms")
        self.expect(
            equitable is True
            and identity is True
            and np.array_equal(b.matrix, ref.quotient(a, ref.case_cells(3, 61)))
            and ref.close(qeig, ref.case_quotient_eigenvalues(3, 61)),
            "partition checks on q=61 case 3 differ",
        )

    # -- fileio, refdata, reproduce ---------------------------------------------

    def io(self) -> None:
        gs = self.gs
        fileio, refdata, reproduce = gs.fileio, gs.refdata, gs.reproduce
        a = ref.lex_k4(ref.case_signing(61, 3))
        sg = signed_graph_of(gs, a)
        path = self.scratch / "probe-lex260.json"
        ms, text = self.timed_ms(lambda: fileio.dumps_json(fileio.signed_graph_to_json_dict(sg)), 3)
        self.put("fileio.dump_ms", ms, "ms")
        path.write_text(text)
        ms, loaded = self.timed_ms(lambda: fileio.load_signed_graph(path), 3)
        self.put("fileio.load_ms", ms, "ms")
        self.expect(np.array_equal(gs.signed_adjacency(loaded), a), "JSON round trip changed the signing")
        manifest = fileio.RunManifest("lex-k4", (str(path),), {"signing": str(path)}, str(path), gs.__version__)
        ms, side = self.timed_ms(lambda: manifest.write_alongside(path), 3)
        self.put("fileio.manifest_ms", ms, "ms")
        self.put("fileio.bytes_written", path.stat().st_size + side.stat().st_size, "bytes")
        self.put("fileio.bytes_read", path.stat().st_size, "bytes")
        path.unlink()
        side.unlink()

        names = refdata.REFERENCE_NAMES
        ms, _ = self.timed_ms(lambda: [refdata.reference_matrix(name) for name in names], 3)
        self.put("refdata.reference_matrix_ms", ms / len(names), "ms")
        for example_id in reproduce.example_ids():
            ms, report = self.timed_ms(lambda: reproduce.run_example(example_id), 1)
            self.put(f"reproduce.run_example_ms.{example_id}", ms, "ms")
            self.expect(report.passed, f"reproduction {example_id} failed")

    # -- cli ---------------------------------------------------------------------

    def cli(self) -> None:
        """Mean time per invocation of each subcommand over one cli round (seed 0)."""
        workload = CliWorkload(self.gs, 0, self.scratch)
        try:
            times: dict[str, list[float]] = {}
            for op in workload.ops:
                t0 = perf_counter()
                out = op.call()
                times.setdefault(op.name.split()[1], []).append(perf_counter() - t0)
                error = op.check(out)
                self.expect(error is None, f"{op.name}: {error}")
        finally:
            workload.close()
        for command, samples in times.items():
            self.put(f"cli.{command.replace('-', '_')}_ms", statistics.fmean(samples) * 1e3, "ms")

    # -- tier-1 ------------------------------------------------------------------

    def tier1(self) -> None:
        """Wall time of the repository's tier-1 test command and its ten slowest tests.

        Recorded in the notes, not as metrics: it does not depend on the
        workload, so only the traced ``cli`` run calls it.
        """
        root = self.scratch.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.scratch))
        argv = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "--durations=10", "-p", "no:cacheprovider", f"--basetemp={self.scratch / 'pytest'}",
        ]
        t0 = perf_counter()
        timeout = max(10.0, self.tier1_deadline - t0)
        try:
            proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
            output = proc.stdout
        except subprocess.TimeoutExpired as exc:  # run() kills the child and waits for it
            output = (exc.stdout or b"").decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
            output += f"\ntimed out after {timeout:.0f} s"
        wall = perf_counter() - t0
        counts = {kind: int(num) for num, kind in re.findall(r"(\d+) (passed|failed|error)", output.splitlines()[-1] if output else "")}
        slowest = re.findall(r"^(\d+\.\d+)s (\w+)\s+(\S+)$", output, flags=re.M)
        self.notes["tier1_wall_s"] = wall
        self.notes["tier1_passed"] = counts.get("passed", 0)
        self.notes["tier1_failed"] = counts.get("failed", 0) + counts.get("error", 0)
        self.notes["tier1_summary"] = output.strip().splitlines()[-1] if output.strip() else ""
        self.notes["tier1_slowest"] = [f"{t}s {phase} {test}" for t, phase, test in slowest]
