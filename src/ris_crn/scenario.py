"""Scenario configuration, unit conversions and geometry derivation.

All angles are stored in degrees; powers are stored in the units they are
usually quoted in (dBW for base-station budgets, dBm for noise) and converted
to watts on demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources

NODE_NAMES = ("sbs", "pbs", "su", "pu", "ris")


class ScenarioError(ValueError):
    """Raised when a scenario document violates an invariant."""


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


def dbw_to_watts(x: float) -> float:
    return 10.0 ** (x / 10.0)


@dataclass(frozen=True)
class NodePosition:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ScenarioError("position coordinates must be finite")
        if self.z < 0:
            raise ScenarioError(f"position z must be >= 0, got {self.z}")

    def distance_to(self, other: "NodePosition") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class PatternParams:
    theta_3db_deg: float = 10.0
    sla_v_db: float | None = None  # None means unbounded side-lobe floor

    def __post_init__(self):
        if self.theta_3db_deg <= 0:
            raise ScenarioError(f"theta_3db_deg must be > 0, got {self.theta_3db_deg}")
        if self.sla_v_db is not None and self.sla_v_db <= 0:
            raise ScenarioError(f"sla_v_db must be > 0 or null, got {self.sla_v_db}")


@dataclass(frozen=True)
class ChannelParams:
    zeta0_db: float = -30.0
    d0_m: float = 1.0
    alpha: float = 3.0
    rician_k: float = 1.0
    channel_sigma2: float = 1.0
    iid_mode: bool = False

    def __post_init__(self):
        if self.d0_m <= 0:
            raise ScenarioError(f"d0_m must be > 0, got {self.d0_m}")
        if self.alpha < 2:
            raise ScenarioError(f"alpha must be >= 2, got {self.alpha}")
        if self.rician_k < 0:
            raise ScenarioError(f"rician_k must be >= 0, got {self.rician_k}")
        if self.channel_sigma2 <= 0:
            raise ScenarioError(
                f"channel_sigma2 must be > 0, got {self.channel_sigma2}"
            )


def _check_angle(name, value):
    if value is None:
        return
    if not (-180.0 <= value <= 0.0):
        raise ScenarioError(f"{name} must lie in [-180, 0] degrees, got {value}")


@dataclass(frozen=True)
class Scenario:
    positions: dict[str, NodePosition]
    n_s: int
    n_p: int
    n_ris: int
    p_max_dbw: float
    pp_dbw: float
    gamma_w: float
    noise_dbm: float
    theta_d_deg: float | None = None
    theta_r_deg: float | None = None
    theta_i_deg: float | None = None
    pattern: PatternParams = field(default_factory=PatternParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    angle_mode: str = "configured"

    def __post_init__(self):
        missing = [n for n in NODE_NAMES if n not in self.positions]
        if missing:
            raise ScenarioError(f"positions missing nodes: {missing}")
        extra = [n for n in self.positions if n not in NODE_NAMES]
        if extra:
            raise ScenarioError(f"positions has unknown nodes: {extra}")
        for name, least in (("n_s", 1), ("n_p", 1), ("n_ris", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ScenarioError(f"{name} must be >= {least}, got {value}")
        for name in ("p_max_dbw", "pp_dbw"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if not (self.gamma_w > 0):
            raise ScenarioError(f"gamma_w must be > 0, got {self.gamma_w}")
        if dbm_to_watts(self.noise_dbm) <= 0 or not math.isfinite(self.noise_dbm):
            raise ScenarioError(f"noise_dbm must be finite, got {self.noise_dbm}")
        if self.angle_mode not in ("configured", "geometric"):
            raise ScenarioError(f"angle_mode must be configured|geometric, got {self.angle_mode!r}")
        if self.angle_mode == "configured":
            for name in ("theta_d_deg", "theta_r_deg", "theta_i_deg"):
                if getattr(self, name) is None:
                    raise ScenarioError(f"{name} is required in configured angle mode")
        for name in ("theta_d_deg", "theta_r_deg", "theta_i_deg"):
            _check_angle(name, getattr(self, name))
        # co-location check (path loss diverges at d = 0)
        names = list(NODE_NAMES)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.positions[a].distance_to(self.positions[b]) <= 0.0:
                    raise ScenarioError(f"nodes {a} and {b} are co-located")

    # -- derived powers ----------------------------------------------------
    @property
    def p_max_w(self) -> float:
        return dbw_to_watts(self.p_max_dbw)

    @property
    def pp_w(self) -> float:
        return dbw_to_watts(self.pp_dbw)

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    def elevation_angles_deg(self):
        """(theta_d, theta_r, theta_i) in the active angle mode."""
        if self.angle_mode == "configured":
            return (self.theta_d_deg, self.theta_r_deg, self.theta_i_deg)
        geometry = derive_geometry(self)
        return (geometry.elev_sbs_su_deg, geometry.elev_sbs_ris_deg,
                geometry.elev_sbs_pu_deg)

    def replace(self, **kwargs) -> "Scenario":
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(kwargs)
        return Scenario(**data)


@dataclass(frozen=True)
class DerivedGeometry:
    d_sbs_ris_m: float
    d_sbs_su_m: float
    d_sbs_pu_m: float
    d_pbs_su_m: float
    d_pbs_pu_m: float
    d_ris_su_m: float
    d_ris_pu_m: float
    elev_sbs_su_deg: float
    elev_sbs_ris_deg: float
    elev_sbs_pu_deg: float


def elevation_deg(src: NodePosition, dst: NodePosition) -> float:
    """Elevation of dst seen from src; negative when dst lies below src."""
    horiz = math.hypot(dst.x - src.x, dst.y - src.y)
    return math.degrees(math.atan2(dst.z - src.z, horiz))


def derive_geometry(scenario: Scenario) -> DerivedGeometry:
    p = scenario.positions
    links = [("sbs", "ris"), ("sbs", "su"), ("sbs", "pu"),
             ("pbs", "su"), ("pbs", "pu"), ("ris", "su"), ("ris", "pu")]
    dists = {}
    for a, b in links:
        d = p[a].distance_to(p[b])
        if d <= 0.0:
            raise ScenarioError(f"nodes {a} and {b} are co-located")
        dists[(a, b)] = d
    return DerivedGeometry(
        d_sbs_ris_m=dists[("sbs", "ris")],
        d_sbs_su_m=dists[("sbs", "su")],
        d_sbs_pu_m=dists[("sbs", "pu")],
        d_pbs_su_m=dists[("pbs", "su")],
        d_pbs_pu_m=dists[("pbs", "pu")],
        d_ris_su_m=dists[("ris", "su")],
        d_ris_pu_m=dists[("ris", "pu")],
        elev_sbs_su_deg=elevation_deg(p["sbs"], p["su"]),
        elev_sbs_ris_deg=elevation_deg(p["sbs"], p["ris"]),
        elev_sbs_pu_deg=elevation_deg(p["sbs"], p["pu"]),
    )


# -- JSON loading ---------------------------------------------------------

_SCENARIO_KEYS = {
    "positions", "n_s", "n_p", "n_ris", "p_max_dbw", "pp_dbw", "gamma_w",
    "noise_dbm", "theta_d_deg", "theta_r_deg", "theta_i_deg", "pattern",
    "channel", "angle_mode",
}
_PATTERN_KEYS = {"theta_3db_deg", "sla_v_db"}
_CHANNEL_KEYS = {"zeta0_db", "d0_m", "alpha", "rician_k", "channel_sigma2",
                 "iid_mode"}
_POSITION_KEYS = {"x", "y", "z"}


def _reject_unknown(doc: dict, allowed: set, where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {unknown}")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _SCENARIO_KEYS, "scenario")
    doc = dict(doc)
    raw_pos = doc.pop("positions", None)
    if not isinstance(raw_pos, dict):
        raise ScenarioError("positions must be an object mapping node -> {x,y,z}")
    positions = {}
    for name, coords in raw_pos.items():
        if not isinstance(coords, dict):
            raise ScenarioError(f"positions.{name} must be an object with x,y,z")
        _reject_unknown(coords, _POSITION_KEYS, f"positions.{name}")
        positions[name] = NodePosition(**coords)
    pattern = doc.pop("pattern", {})
    _reject_unknown(pattern, _PATTERN_KEYS, "pattern")
    channel = doc.pop("channel", {})
    _reject_unknown(channel, _CHANNEL_KEYS, "channel")
    return Scenario(positions=positions, pattern=PatternParams(**pattern),
                    channel=ChannelParams(**channel), **doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        "positions": {name: {"x": p.x, "y": p.y, "z": p.z}
                      for name, p in scenario.positions.items()},
        "pattern": {k: getattr(scenario.pattern, k) for k in _PATTERN_KEYS},
        "channel": {k: getattr(scenario.channel, k) for k in _CHANNEL_KEYS},
    }
    for key in sorted(_SCENARIO_KEYS - {"positions", "pattern", "channel"}):
        doc[key] = getattr(scenario, key)
    return doc


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Deep-merge a partial scenario document and re-validate."""
    doc = scenario_to_dict(scenario)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    return scenario_from_dict(doc)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def paper_default() -> Scenario:
    """The bundled default scenario used throughout the experiment sweeps."""
    text = resources.files("ris_crn.data").joinpath("paper_default.json").read_text()
    return scenario_from_dict(json.loads(text))
