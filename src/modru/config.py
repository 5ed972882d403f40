"""Scenario configuration from flat key-value files.

A run is configured in one place: the built-in truck or car scenario,
changed by the ``section.key = value`` lines of one config file (``#``
comments; later keys win), and the CLI's ``--seed``.  The environment
is not read.  Profile-valued keys use ``pos:val, pos:val, ...`` pairs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .plant import CarParams, PositionProfile, TruckParams
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
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6 or any(p not in ("0", "1") for p in parts) or parts[0] != "1":
        raise ConfigError(f"mask must be six 0/1 flags with th1 active, got {text!r}")
    return tuple(p == "1" for p in parts)


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_optional_float(text: str) -> float | None:
    t = text.strip().lower()
    if t in ("", "none", "auto"):
        return None
    return _parse_float(text)


@dataclass
class Scenario:
    """Complete description of one experiment run."""

    name: str = "truck-default"
    plant_type: str = "truck"
    plant_params: TruckParams | CarParams = field(default_factory=TruckParams)
    path_length: float = 10_000.0
    slope: PositionProfile = None
    v_limit: PositionProfile = None
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


def default_truck_scenario() -> Scenario:
    """10 km haul: +-4% grade features and a reduced-limit mid-zone."""
    sc = Scenario()
    sc.slope = PositionProfile(
        np.array([0.0, 2000.0, 2300.0, 3100.0, 3400.0, 5600.0,
                  5900.0, 6700.0, 7000.0, 10_000.0]),
        np.array([0.0, 0.0, 0.04, 0.04, 0.0, 0.0, -0.04, -0.04, 0.0, 0.0]),
        "linear")
    sc.v_limit = PositionProfile(np.array([0.0, 4700.0, 5600.0]),
                                 np.array([25.0, 15.0, 25.0]), "constant")
    return sc


def default_car_scenario() -> Scenario:
    """1 km urban stretch with rolling grade and a faster middle zone."""
    sc = Scenario(
        name="car-default",
        plant_type="car",
        plant_params=CarParams(),
        path_length=1000.0,
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
    sc.slope = PositionProfile(
        np.array([0.0, 100.0, 200.0, 350.0, 450.0, 550.0, 700.0, 800.0, 1000.0]),
        np.array([0.0, 0.0, 0.04, 0.04, 0.0, -0.04, -0.04, 0.0, 0.0]),
        "linear")
    sc.v_limit = PositionProfile(np.array([0.0, 300.0, 700.0]),
                                 np.array([13.9, 16.7, 13.9]), "constant")
    return sc


# key -> (scenario field, parser); every plant.* override parses as a float.
_KEYS = {
    "scenario.name": ("name", str),
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
    missing file or a malformed line is a :class:`ConfigError`."""
    try:
        return read_keyvalues(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def scenario_from_config(cfg: dict[str, str]) -> Scenario:
    """Build a scenario from config entries on top of the built-in defaults."""
    cfg = dict(cfg)
    plant_type = cfg.pop("plant.type", "truck")
    if plant_type == "truck":
        sc = default_truck_scenario()
    elif plant_type == "car":
        sc = default_car_scenario()
    else:
        raise ConfigError(f"unknown plant.type {plant_type!r}")

    plant_over: dict[str, float] = {}
    slope_kind = cfg.pop("slope.kind", "linear")
    vlim_kind = cfg.pop("vlim.kind", "constant")
    for key, raw in cfg.items():
        if key == "slope.breakpoints":
            sc.slope = parse_pairs(raw, slope_kind)
            continue
        if key == "vlim.breakpoints":
            sc.v_limit = parse_pairs(raw, vlim_kind)
            continue
        plant = key.startswith("plant.")
        if not plant and key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parser = (key.split(".", 1)[1], _parse_float) if plant else _KEYS[key]
        try:
            value = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if plant:
            plant_over[name] = value
        else:
            setattr(sc, name, value)

    if plant_over:
        valid = {f.name for f in dataclasses.fields(type(sc.plant_params))}
        bad = set(plant_over) - valid
        if bad:
            raise ConfigError(f"unknown plant parameter(s): {sorted(bad)}")
        try:
            sc.plant_params = dataclasses.replace(sc.plant_params, **plant_over)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    for positive in ("path_length", "T_f", "vdot_lim", "est_duration", "est_h",
                     "sim_h", "rho_I", "rho_u", "ctrl_u_lim"):
        if not getattr(sc, positive) > 0:
            raise ConfigError(f"{positive} must be positive")
    if round(sc.est_duration / sc.est_h) < 9:
        raise ConfigError("est.duration / est.h must give the 10 samples a fit needs")
    if sc.to_n < 2 or sc.grid_n < 2 or sc.sim_substeps < 1:
        raise ConfigError("to.N and ctrl.grid_n must be >= 2, sim.substeps >= 1")
    if sc.to_u_lim is not None and not sc.to_u_lim > 0:
        raise ConfigError(f"to.u_lim must be 'none' or positive, got {sc.to_u_lim:g}")
    if not sc.eff_gen >= 1.0 >= sc.eff_regen > 0.0:
        raise ConfigError("need eff.gen >= 1 >= eff.regen > 0")
    if not sc.est_noise >= 0:
        raise ConfigError("est.noise must be >= 0")
    check_seed(sc.seed)
    return sc


def check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` unless ``seed`` is a valid numpy seed."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def load_scenario(config_path=None, seed: int | None = None) -> Scenario:
    cfg = read_config_file(config_path) if config_path else {}
    sc = scenario_from_config(cfg)
    if seed is not None:
        check_seed(seed)
        sc.seed = seed
    return sc
