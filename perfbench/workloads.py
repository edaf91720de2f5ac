"""The three benchmark workloads: inputs from a seed, one operation, and the
checks of its outputs.

Every check rests on a computation made apart from the program (a CSV parser,
a rate equation, an ODE solver, a matrix exponential built here) or on a law
the method must obey (conservation of energy, the second law, positivity).
None compares against a stored copy of earlier output.  Checks that need
scipy run once, after the timed loop and after the peak resident set is read,
so the checker's imports stay out of ``peak_rss_mb``.
"""

from __future__ import annotations

import csv
import io
import math
import random

import numpy as np

import spans


class CheckFailed(Exception):
    """An output of the program broke a check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Metadata block and rows of a qthermo CSV, read without the program's parser."""
    lines = text.split("\n")
    expect(lines[-1] == "", "CSV does not end with a line feed")
    metadata = {}
    body = 0
    for body, line in enumerate(lines):
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        metadata[key] = value
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[body:]))))
    return metadata, rows


def second_law(currents, temperatures) -> float:
    """Entropy production sum_k J_k / T_k, J_k positive into bath k."""
    return float(sum(j / t for j, t in zip(currents, temperatures)))


def lowest_eigenvalue_and_drift(trajectory: np.ndarray) -> tuple[float, float]:
    hermitian = 0.5 * (trajectory + np.conj(np.swapaxes(trajectory, -1, -2)))
    lowest = float(np.linalg.eigvalsh(hermitian).min())
    drift = float(np.max(np.abs(np.trace(trajectory, axis1=1, axis2=2) - 1.0)))
    return lowest, drift


# ---------------------------------------------------------------- survey

class Survey:
    """``qthermo figure2`` at its defaults: 20 chain steady states at N=10 over
    four panels, fanned out over the population_sweep thread pool."""

    PANELS = ("panel_b", "panel_c", "panel_d", "panel_e")
    POINTS = 20
    N = 10

    def __init__(self, q):
        self.q = q
        self.first_texts = None

    def build(self, seed: int):
        # figure2 takes no inputs beyond its defaults; the seed changes nothing
        return {}

    def warmup(self, inputs) -> None:
        # a two-point sweep starts the pool and BLAS threads before timing
        cli = self.q.cli
        cli.run(cli.build_config("sweep", overrides={"N": "4", "g_list": "0.1,0.5"}))

    def op(self, inputs):
        cli = self.q.cli
        config = cli.build_config("figure2", overrides=dict(inputs))
        outcome = cli.run(config)
        texts = [(name, cli.render(table, "csv")) for name, table in outcome.tables]
        return config, outcome.exit_code, texts

    def check(self, inputs, output) -> None:
        cli = self.q.cli
        config, exit_code, texts = output
        expect(exit_code == 0, f"figure2 exit code {exit_code}")
        expect([name for name, _ in texts] == list(self.PANELS), "unexpected figure2 panels")
        if self.first_texts is None:
            self.first_texts = texts
        expect(texts == self.first_texts, "figure2 CSV bytes differ between operations")
        points = 0
        for name, text in texts:
            rebuilt = cli.config_from_metadata(cli.parse_metadata(text))
            expect(rebuilt.experiment == "figure2"
                   and rebuilt.resolved_items() == config.resolved_items(),
                   f"{name}: metadata does not rebuild the run's config")
            metadata, rows = parse_csv(text)
            expect(metadata.get("warnings") == "0", f"{name}: warnings = {metadata.get('warnings')}")
            grouped: dict[tuple[float, float, float], list[dict[str, str]]] = {}
            for row in rows:
                expect(row["error"] == "", f"{name}: error row {row['error']!r}")
                key = (float(row["g"]), float(row["T_L"]), float(row["T_R"]))
                grouped.setdefault(key, []).append(row)
            for (g, t_left, t_right), point in grouped.items():
                points += 1
                self._check_point(name, g, point)
        expect(points == self.POINTS, f"{points} survey points, expected {self.POINTS}")

    def _check_point(self, panel: str, g: float, rows) -> None:
        where = f"{panel} g={g:g}"
        expect([int(r["site"]) for r in rows] == list(range(1, self.N + 1)), f"{where}: sites")
        populations = np.array([float(r["population"]) for r in rows])
        expect(abs(populations.sum() - 1.0) <= 1e-9, f"{where}: populations sum to {populations.sum()!r}")
        verdicts = {r["verdict"] for r in rows}
        expect(len(verdicts) == 1, f"{where}: several verdicts {verdicts}")
        verdict = verdicts.pop()
        peak = int(np.argmax(populations)) + 1
        # the paper's regimes; intermediate g sit near thresholds and are left out
        if abs(g - 0.1) < 1e-12:
            expect(verdict == "positive", f"{where}: verdict {verdict}, expected positive")
        elif abs(g - 1.3) < 1e-12 and panel == "panel_d":
            expect(verdict == "negative" and peak == 3, f"{where}: {verdict} peaking at {peak}")
        elif abs(g - 1.3) < 1e-12 and panel == "panel_e":
            expect(verdict == "delocalized" and peak in (5, 6), f"{where}: {verdict} peaking at {peak}")

    def final_check(self, inputs) -> None:
        pass


# --------------------------------------------------------------- scaling

class StateRecorder:
    """Keeps the states ``steady_state`` returns, by wrapping it at every
    binding in the package; adds one Python call per solve."""

    def __init__(self, q):
        self.states = []
        original = getattr(q.davies, "steady_state", None)
        if original is None:
            return

        def recording(*args, **kwargs):
            state = original(*args, **kwargs)
            self.states.append(state)
            return state

        spans.replace_bindings(original, recording)

    def take(self):
        states, self.states = self.states, []
        return states


def chain_hamiltonian(n_sites: int, site_energy: float, tunneling: float) -> np.ndarray:
    """Chain Hamiltonian in the basis (g_1, e_1, g_2, e_2, ...), built here."""
    h = np.zeros((2 * n_sites, 2 * n_sites))
    for site in range(n_sites):
        h[2 * site + 1, 2 * site + 1] = site_energy
    for site in range(n_sites - 1):
        h[2 * site + 1, 2 * site + 3] = h[2 * site + 3, 2 * site + 1] = tunneling
    return h


class Scaling:
    """One operation is a round of four ``chain`` runs at N=12 (a 576x576
    generator), each with populations, verdict, heat currents and CSV."""

    N = 12
    # (g, T_L, T_R): weak and strong tunnelling at the hot profile, strong at
    # the cold profile, and a uniform profile that must relax to Gibbs
    RUNS = ((0.1, 0.8, 0.4), (1.3, 0.8, 0.4), (1.3, 0.3, 0.1), (0.5, 0.6, 0.6))

    def __init__(self, q):
        self.q = q
        self.recorder = None
        self.first_texts: dict[tuple, str] = {}
        self.uniform = []  # (overrides, populations, states) for the Gibbs check

    def build(self, seed: int):
        runs = list(self.RUNS)
        random.Random(seed).shuffle(runs)  # the seed orders the runs of a round
        return [{"N": str(self.N), "g": repr(g), "T_L": repr(tl), "T_R": repr(tr)}
                for g, tl, tr in runs]

    def warmup(self, inputs) -> None:
        self.recorder = StateRecorder(self.q)
        cli = self.q.cli
        cli.run(cli.build_config("chain", overrides={"N": "4"}))
        self.recorder.take()

    def op(self, inputs):
        cli = self.q.cli
        results = []
        for overrides in inputs:
            outcome = cli.run(cli.build_config("chain", overrides=overrides))
            text = cli.render(outcome.tables[0][1], "csv")
            results.append((overrides, outcome.exit_code, text, self.recorder.take()))
        return results

    def check(self, inputs, output) -> None:
        for overrides, exit_code, text, states in output:
            where = f"chain g={overrides['g']} T=({overrides['T_L']}, {overrides['T_R']})"
            expect(exit_code == 0, f"{where}: exit code {exit_code}")
            key = tuple(sorted(overrides.items()))
            expect(self.first_texts.setdefault(key, text) == text,
                   f"{where}: CSV bytes differ between operations")
            metadata, rows = parse_csv(text)
            expect(len(rows) == self.N, f"{where}: {len(rows)} rows")
            populations = np.array([float(r["population"]) for r in rows])
            currents = np.array([float(r["current"]) for r in rows])
            temperatures = np.linspace(float(overrides["T_L"]), float(overrides["T_R"]), self.N)
            expect(abs(populations.sum() - 1.0) <= 1e-9, f"{where}: populations sum to {populations.sum()!r}")
            expect(abs(currents.sum()) <= 1e-9, f"{where}: heat currents sum to {currents.sum():.3e}")
            production = second_law(currents, temperatures)
            expect(production >= -1e-12, f"{where}: entropy production {production:.3e} < 0")
            if overrides["T_L"] == overrides["T_R"]:
                expect(metadata.get("verdict") == "not-applicable",
                       f"{where}: verdict {metadata.get('verdict')} at a uniform temperature")
                if len(self.uniform) < 4:  # the states repeat; a few cover the run
                    self.uniform.append((overrides, populations, states))

    def final_check(self, inputs) -> None:
        from scipy.linalg import expm

        for overrides, populations, states in self.uniform:
            temperature = float(overrides["T_L"])
            h = chain_hamiltonian(self.N, 1.0, float(overrides["g"]))
            gibbs = expm(-h / temperature)
            gibbs /= np.trace(gibbs)
            if states:
                diff = states[-1] - gibbs
                distance = 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())
            else:
                # steady_state is no longer a public function: compare the
                # site populations the CSV carries instead of the state
                sites = gibbs.diagonal().real.reshape(self.N, 2).sum(axis=1)
                distance = 0.5 * float(np.abs(populations - sites).sum())
            expect(distance <= 1e-6, f"uniform chain is {distance:.3e} from the Gibbs state")


# --------------------------------------------------------- small systems

def rate_equation_unbalance(configuration: str, temp_1: float, temp_2: float,
                            omega: float, gamma: float) -> float:
    """Stationary P_2 - P_1 of the 3-state Pauli rate equation with Bose
    occupations, solved here.  Levels: lambda (1, 2, e), vee (g, 1, 2)."""
    n_1, n_2 = (1.0 / math.expm1(omega / t) for t in (temp_1, temp_2))
    rates = np.zeros((3, 3))  # rates[i, j]: transition j -> i
    if configuration == "lambda":
        rates[2, 0], rates[0, 2] = gamma * n_1, gamma * (n_1 + 1.0)
        rates[2, 1], rates[1, 2] = gamma * n_2, gamma * (n_2 + 1.0)
        low, high = 0, 1
    else:
        rates[1, 0], rates[0, 1] = gamma * n_1, gamma * (n_1 + 1.0)
        rates[2, 0], rates[0, 2] = gamma * n_2, gamma * (n_2 + 1.0)
        low, high = 1, 2
    generator = rates - np.diag(rates.sum(axis=0))
    system = np.vstack([generator, np.ones(3)])
    p = np.linalg.lstsq(system, np.array([0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    return float(p[high] - p[low])


class SmallSystems:
    """Lambda and vee systems over a seeded grid of bath occupations (closed
    forms, generator steady state, heat currents), plus time evolution: a
    lambda trajectory with the oscillator check at dt=1e-3, a 4-site chain
    trajectory (a 64x64 generator) and the Dufour finite-capacity heating."""

    GRID = 96          # occupation pairs; each is solved as lambda and as vee
    DT = 1e-3          # sampling step of the oscillator check
    DUFOUR = {"omega": 1.0, "gamma": 1.0, "temp_start": 1.0 / math.log(2.0),
              "capacity": 10.0, "horizon": 5.0, "samples": 201}
    DUFOUR_POPULATIONS = (0.2, 0.3, 0.5)

    def __init__(self, q):
        self.q = q
        self.histories = []

    def build(self, seed: int):
        q = self.q
        rng = random.Random(seed)
        grid = []
        for _ in range(self.GRID):
            n_1, n_2 = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
            grid.append(tuple(q.ThreeLevelParams.from_occupations(c, n_1, n_2)
                              for c in ("lambda", "vee")))
        return {
            "grid": grid,
            "oscillator": q.ThreeLevelParams.from_occupations("lambda", 2.0, 1.0),
            "rho0": np.diag([1.0, 0.0, 0.0]).astype(complex),
            "times": np.arange(0.0, 4.0 + self.DT / 2.0, self.DT),
            "chain": q.ChainSpec(4, 1.0, 0.5, 0.05, q.LinearProfile(0.8, 0.4)),
            "mixed": np.eye(8, dtype=complex) / 8.0,
            "chain_times": np.linspace(0.0, 30.0, 31),
            "pops": q.LevelPopulations(*self.DUFOUR_POPULATIONS),
        }

    def warmup(self, inputs) -> None:
        self.op(inputs)

    def op(self, inputs):
        q = self.q
        solved = []
        for pair in inputs["grid"]:
            row = []
            for params in pair:
                diag = q.thermo_diagnostics(params)
                system = q.three_level_system(params)
                rho = q.steady_state(q.liouvillian(system))
                pops = q.populations_from_state(rho, params)
                row.append((diag.unbalance, pops.unbalance, diag.force,
                            q.heat_currents(system, rho)))
            solved.append(row)
        params = inputs["oscillator"]
        trajectory = q.evolve(q.liouvillian(q.lambda_system(params)), inputs["rho0"],
                              inputs["times"], validate=False)
        residual = q.mean_position_trajectory(params, trajectory, inputs["times"]).rel_residual_max
        chain_trajectory = q.evolve(q.liouvillian(q.chain_system(inputs["chain"])),
                                    inputs["mixed"], inputs["chain_times"], validate=False)
        history = q.finite_capacity_heating(inputs["pops"], **self.DUFOUR)
        return solved, trajectory, residual, chain_trajectory, history

    def check(self, inputs, output) -> None:
        solved, trajectory, residual, chain_trajectory, history = output
        for pair, row in zip(inputs["grid"], solved):
            for params, (closed, numeric, _, currents) in zip(pair, row):
                where = f"{params.configuration} n=({params.temp_1:.4g}, {params.temp_2:.4g})"
                expect(abs(numeric - closed) <= 1e-8,
                       f"{where}: generator unbalance {numeric!r} vs closed form {closed!r}")
                reference = rate_equation_unbalance(params.configuration, params.temp_1,
                                                    params.temp_2, params.omega_1, params.gamma_1)
                expect(abs(numeric - reference) <= 1e-8,
                       f"{where}: generator unbalance {numeric!r} vs rate equation {reference!r}")
                expect(abs(float(np.sum(currents))) <= 1e-9, f"{where}: currents sum to {np.sum(currents):.3e}")
                production = second_law(currents, (params.temp_1, params.temp_2))
                expect(production >= -1e-12, f"{where}: entropy production {production:.3e} < 0")
            force_lambda, force_vee = row[0][2], row[1][2]
            expect(abs(force_lambda + force_vee) <= 1e-12,
                   f"lambda force {force_lambda!r} and vee force {force_vee!r} are not opposite")
        for name, states in (("lambda", trajectory), ("4-site chain", chain_trajectory)):
            lowest, drift = lowest_eigenvalue_and_drift(states)
            expect(drift <= 1e-7, f"{name} trajectory: trace drift {drift:.3e}")
            expect(lowest >= -1e-7, f"{name} trajectory: eigenvalue {lowest:.3e}")
        expect(residual <= 1e-4, f"oscillator residual {residual:.3e} at dt={self.DT}")
        expect(not history.truncated, "Dufour heating history was truncated")
        expect(bool(np.all(history.temp_1[1:] > history.temp_2[1:])), "Dufour heating lost T_1 > T_2")
        self.histories.append(history)

    def final_check(self, inputs) -> None:
        from scipy.integrate import solve_ivp

        d = self.DUFOUR
        p_1, p_2, p_e = self.DUFOUR_POPULATIONS

        def rhs(t, temps):
            n_1, n_2 = (1.0 / math.expm1(d["omega"] / temp) for temp in temps)
            j_1 = d["omega"] * d["gamma"] * ((n_1 + 1.0) * p_e - n_1 * p_1)
            j_2 = d["omega"] * d["gamma"] * ((n_2 + 1.0) * p_e - n_2 * p_2)
            return [j_1 / d["capacity"], j_2 / d["capacity"]]

        start = [d["temp_start"], d["temp_start"]]
        times = np.linspace(0.0, d["horizon"], d["samples"])
        reference = solve_ivp(rhs, (0.0, d["horizon"]), start, method="DOP853",
                              rtol=1e-13, atol=1e-13, t_eval=times).y
        # RK4's global error is about (e^{Lt} - 1) (L h)^4 |T| with L the
        # Lipschitz constant of the right-hand side; allow 100 times that,
        # plus the reference's own tolerance.  A second-order method would
        # miss it by orders of magnitude.
        eps = 1e-6
        lipschitz = max(abs(rhs(0, [start[0] + eps, start[1]])[0] - rhs(0, start)[0]),
                        abs(rhs(0, [start[0], start[1] + eps])[1] - rhs(0, start)[1])) / eps
        step = d["horizon"] / (d["samples"] - 1)
        bound = (100.0 * math.expm1(lipschitz * d["horizon"]) * (lipschitz * step) ** 4
                 * float(np.max(reference)) + 1e-11)
        for history in self.histories:
            error = max(float(np.max(np.abs(history.temp_1 - reference[0]))),
                        float(np.max(np.abs(history.temp_2 - reference[1]))))
            expect(error <= bound, f"Dufour heating is {error:.3e} from solve_ivp (bound {bound:.1e})")


WORKLOADS = {"survey": Survey, "scaling": Scaling, "small_systems": SmallSystems}
