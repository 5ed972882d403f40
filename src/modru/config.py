"""Scenario configuration from flat key-value files.

A run is configured in one place: the built-in truck or car scenario,
changed by the ``section.key = value`` lines of one config file (``#``
comments; later keys win), and the CLI's ``--seed``.  The environment
is not read.  It is checked in one place too, :class:`Scenario`, so a
scenario built with ``dataclasses.replace`` is refused as a config file
would be.  Profile-valued keys use ``pos:val, pos:val, ...`` pairs:
``slope.breakpoints`` interpolates linearly between its pairs, and
``vlim.breakpoints`` holds each speed limit, which must be positive and
at most ``plant.V_DIVERGED``, from its position to the next.
``to.u_lim = none`` plans without an input bound.  ``est.mask`` fits th1
and not th3, without which the timing planner is convex; ``est.hold`` is
at least one sample time ``est.h``.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .plant import V_DIVERGED, CarParams, PositionProfile, TruckParams
from .tables import read_keyvalues


def parse_pairs(text: str, kind: str) -> PositionProfile:
    """Parse 'pos:val, pos:val, ...' into a position profile."""
    bps, vals = [], []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        pos, sep, val = chunk.partition(":")
        if not sep:
            raise ConfigError(f"expected pos:val pair, got {chunk!r}")
        try:
            bps.append(float(pos))
            vals.append(float(val))
        except ValueError as exc:
            raise ConfigError(f"bad numeric pair {chunk!r}") from exc
    if not bps:
        raise ConfigError("empty breakpoint list")
    try:
        return PositionProfile(np.array(bps), np.array(vals), kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_mask(text: str) -> tuple[bool, ...]:
    flags = [p.strip() for p in text.split(",")]
    if not set(flags) <= {"0", "1"}:
        raise ValueError("mask flags must be 0 or 1")
    return tuple(f == "1" for f in flags)


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() == "none" else _parse_float(text)


@dataclass(kw_only=True)
class Scenario:
    """Complete description of one experiment run; the defaults are the
    truck's, apart from the route.  Every check of a run's configuration
    is made here, and a refused one raises :class:`ConfigError`."""

    name: str = "truck-default"
    plant_params: TruckParams | CarParams = field(default_factory=TruckParams)
    path_length: float = 10_000.0
    slope: PositionProfile
    v_limit: PositionProfile
    T_f: float = 1000.0
    to_n: int = 100
    vdot_lim: float = 0.7
    to_u_lim: float | None = 4000.0
    eff_gen: float = 1.1
    eff_regen: float = 0.9
    est_duration: float = 1800.0
    est_h: float = 0.5
    est_noise: float = 0.0
    est_hold: float = 60.0
    est_slope_amp: float = 0.02
    est_mask: tuple = (True, True, False, True, True, False)
    rho_I: float = 0.01
    rho_u: float = 2e-5
    grid_n: int = 11
    ctrl_u_lim: float = 4000.0
    sim_h: float = 0.5
    sim_substeps: int = 2
    seed: int = 1234

    def __post_init__(self):
        if not isinstance(self.plant_params, (TruckParams, CarParams)):
            raise ConfigError("plant_params must be TruckParams or CarParams, "
                              f"got {type(self.plant_params).__name__}")
        for profile in ("slope", "v_limit"):
            if not isinstance(getattr(self, profile), PositionProfile):
                raise ConfigError(f"{profile} must be a PositionProfile, "
                                  f"got {type(getattr(self, profile)).__name__}")
        for count in ("to_n", "grid_n", "sim_substeps", "seed"):
            try:
                operator.index(getattr(self, count))
            except TypeError:
                raise ConfigError(f"{count} must be an integer, "
                                  f"got {getattr(self, count)!r}") from None
        for positive in ("path_length", "T_f", "vdot_lim", "est_duration", "est_h",
                         "sim_h", "rho_I", "rho_u", "ctrl_u_lim"):
            if not getattr(self, positive) > 0:
                raise ConfigError(f"{positive} must be positive")
        if not self.path_length / self.T_f * (self.path_length / self.T_f) > 0:
            raise ConfigError("the timing planner starts at the squared speed "
                              "(path.length / to.T_f)**2, which must not round to 0")
        n_est = self.est_duration / self.est_h
        if not (np.isfinite(n_est) and round(n_est) >= 9):
            raise ConfigError("est.duration / est.h must be finite and give the 10 "
                              "samples a fit needs")
        if not (self.est_hold >= self.est_h and np.isfinite(self.est_hold / self.est_h)):
            raise ConfigError("need est.hold >= est.h and a finite est.hold / est.h")
        # Above V_DIVERGED the simulator aborts; the excitation route, whose
        # length grows with the top limit, would be built first.
        if not np.all((self.v_limit.values > 0) & (self.v_limit.values <= V_DIVERGED)):
            raise ConfigError("every speed limit in vlim.breakpoints must be positive "
                              f"and at most {V_DIVERGED:g} m/s")
        if not (self.to_n >= 2 and self.grid_n >= 2 and self.sim_substeps >= 1):
            raise ConfigError("to.N and ctrl.grid_n must be >= 2, sim.substeps >= 1")
        if self.to_u_lim is not None and not self.to_u_lim > 0:
            raise ConfigError(f"to.u_lim must be 'none' or positive, got {self.to_u_lim:g}")
        if not self.eff_gen >= 1.0 >= self.eff_regen > 0.0:
            raise ConfigError("need eff.gen >= 1 >= eff.regen > 0")
        if not self.est_noise >= 0:
            raise ConfigError("est.noise must be >= 0")
        mask = self.est_mask
        if not (len(mask) == 6 and mask[0] and not mask[2]):
            raise ConfigError(f"mask must be six 0/1 flags with th1 on and th3 off, got {mask!r}")
        check_seed(self.seed)


def default_truck_scenario() -> Scenario:
    """10 km haul: +-4% grade features and a reduced-limit mid-zone."""
    return Scenario(
        slope=PositionProfile(
            np.array([0.0, 2000.0, 2300.0, 3100.0, 3400.0, 5600.0,
                      5900.0, 6700.0, 7000.0, 10_000.0]),
            np.array([0.0, 0.0, 0.04, 0.04, 0.0, 0.0, -0.04, -0.04, 0.0, 0.0]),
            "linear"),
        v_limit=PositionProfile(np.array([0.0, 4700.0, 5600.0]),
                                np.array([25.0, 15.0, 25.0]), "constant"))


def default_car_scenario() -> Scenario:
    """1 km urban stretch with rolling grade and a faster middle zone."""
    return Scenario(
        name="car-default",
        plant_params=CarParams(),
        path_length=1000.0,
        slope=PositionProfile(
            np.array([0.0, 100.0, 200.0, 350.0, 450.0, 550.0, 700.0, 800.0, 1000.0]),
            np.array([0.0, 0.0, 0.04, 0.04, 0.0, -0.04, -0.04, 0.0, 0.0]),
            "linear"),
        v_limit=PositionProfile(np.array([0.0, 300.0, 700.0]),
                                np.array([13.9, 16.7, 13.9]), "constant"),
        T_f=75.2,
        to_n=50,
        vdot_lim=2.0,
        to_u_lim=4000.0,
        est_duration=400.0,
        est_h=0.2,
        est_hold=40.0,
        est_slope_amp=0.005,
        rho_u=2e-6,
        ctrl_u_lim=4500.0,
        sim_h=0.2,
        sim_substeps=1,
    )


# key -> (scenario field, parser); every plant.* override parses as a float.
_KEYS = {
    "scenario.name": ("name", str),
    "slope.breakpoints": ("slope", lambda text: parse_pairs(text, "linear")),
    "vlim.breakpoints": ("v_limit", lambda text: parse_pairs(text, "constant")),
    "path.length": ("path_length", _parse_float),
    "to.T_f": ("T_f", _parse_float),
    "to.N": ("to_n", int),
    "to.vdot_lim": ("vdot_lim", _parse_float),
    "to.u_lim": ("to_u_lim", _parse_optional_float),
    "eff.gen": ("eff_gen", _parse_float),
    "eff.regen": ("eff_regen", _parse_float),
    "est.duration": ("est_duration", _parse_float),
    "est.h": ("est_h", _parse_float),
    "est.noise": ("est_noise", _parse_float),
    "est.hold": ("est_hold", _parse_float),
    "est.slope_amp": ("est_slope_amp", _parse_float),
    "est.mask": ("est_mask", _parse_mask),
    "ctrl.rho_I": ("rho_I", _parse_float),
    "ctrl.rho_u": ("rho_u", _parse_float),
    "ctrl.grid_n": ("grid_n", int),
    "ctrl.u_lim": ("ctrl_u_lim", _parse_float),
    "sim.h": ("sim_h", _parse_float),
    "sim.substeps": ("sim_substeps", int),
    "seed": ("seed", int),
}


def read_config_file(path) -> dict[str, str]:
    """Read 'key = value' lines (:func:`modru.tables.read_keyvalues`); a
    file that cannot be read or a malformed line is a :class:`ConfigError`."""
    try:
        return read_keyvalues(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def scenario_from_config(cfg: dict[str, str]) -> Scenario:
    """Build a scenario from config entries on top of the built-in defaults."""
    cfg = dict(cfg)
    plant_type = cfg.pop("plant.type", "truck")
    if plant_type not in ("truck", "car"):
        raise ConfigError(f"unknown plant.type {plant_type!r}")
    sc = default_truck_scenario() if plant_type == "truck" else default_car_scenario()

    changes: dict[str, object] = {}
    plant_over: dict[str, float] = {}
    for key, raw in cfg.items():
        plant = key.startswith("plant.")
        if not plant and key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parser = (key.split(".", 1)[1], _parse_float) if plant else _KEYS[key]
        try:
            value = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        (plant_over if plant else changes)[name] = value

    if plant_over:
        valid = {f.name for f in dataclasses.fields(type(sc.plant_params))}
        bad = set(plant_over) - valid
        if bad:
            raise ConfigError(f"unknown plant parameter(s): {sorted(bad)}")
        try:
            changes["plant_params"] = dataclasses.replace(sc.plant_params, **plant_over)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return dataclasses.replace(sc, **changes)


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` >= 0: ``random.Random``
    seeds with |seed|, so -s would draw what s draws."""
    if not seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def load_scenario(config_path=None, seed: int | None = None) -> Scenario:
    sc = scenario_from_config(read_config_file(config_path) if config_path else {})
    return sc if seed is None else dataclasses.replace(sc, seed=seed)
