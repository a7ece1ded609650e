"""Scenario configuration, unit conversions and node geometry.

All angles are stored in degrees; powers are stored in the units they are
usually quoted in (dBW for base-station budgets, dBm for noise) and converted
to watts on demand.  The JSON schema is the dataclass fields themselves, and
each field's annotation is the JSON type it takes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

NODE_NAMES = ("sbs", "pbs", "su", "pu", "ris")


class ScenarioError(ValueError):
    """Raised when a scenario document violates an invariant."""


def _is_finite_number(value) -> bool:
    """A real number other than a bool that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int beyond the float range
        return False


def _check_fields(obj, error=ScenarioError):
    """Check every field against its annotation, raising ``error``.

    ``float`` takes a finite number, a JSON integer included but not a
    bool; ``float | None`` also takes None; ``int`` takes an integer
    (numpy's too) but not a bool, ``bool`` only true or false, ``str`` a
    string, ``tuple`` a tuple (a JSON list once loaded) and ``dict | None``
    an object or None.  Fields of other types are built and checked by
    their own classes.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("float | None", "dict | None") and value is None:
            continue
        if f.type in ("float", "float | None"):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise error(f"{f.name} must be a number, got {value!r}")
            if not _is_finite_number(value):
                raise error(f"{f.name} must be finite, got {value}")
        elif f.type == "int" and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Integral)):
            raise error(f"{f.name} must be an integer, got {value!r}")
        elif f.type == "bool" and not isinstance(value, bool):
            raise error(f"{f.name} must be true or false, got {value!r}")
        elif f.type == "str" and not isinstance(value, str):
            raise error(f"{f.name} must be a string, got {value!r}")
        elif f.type == "tuple" and not isinstance(value, tuple):
            raise error(f"{f.name} must be a list, got {value!r}")
        elif f.type == "dict | None" and not isinstance(value, dict):
            raise error(f"{f.name} must be an object or null, got {value!r}")


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
        _check_fields(self)
        if self.z < 0:
            raise ScenarioError(f"position z must be >= 0, got {self.z}")

    def distance_to(self, other: "NodePosition") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class PatternParams:
    theta_3db_deg: float = 10.0
    sla_v_db: float | None = None  # None means unbounded side-lobe floor

    def __post_init__(self):
        _check_fields(self)
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
        _check_fields(self)
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


def _check_angle(name, value, error=ScenarioError):
    """A finite number of degrees in [-180, 0]."""
    if not (_is_finite_number(value) and -180.0 <= value <= 0.0):
        raise error(f"{name} must lie in [-180, 0] degrees, got {value!r}")


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
    theta_d_deg: float     # elevation toward the SU
    theta_r_deg: float     # elevation toward the RIS
    theta_i_deg: float     # elevation toward the PU
    pattern: PatternParams = field(default_factory=PatternParams)
    channel: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self):
        # before the field check, so that a dB field that is null reads as
        # giving no finite power
        for name, to_watts in (("p_max_dbw", dbw_to_watts),
                               ("pp_dbw", dbw_to_watts),
                               ("noise_dbm", dbm_to_watts)):
            try:
                to_watts(getattr(self, name))
            except (OverflowError, TypeError):
                raise ScenarioError(f"{name} must give a finite power, "
                                    f"got {getattr(self, name)!r}") from None
        _check_fields(self)
        missing = [n for n in NODE_NAMES if n not in self.positions]
        if missing:
            raise ScenarioError(f"positions missing nodes: {missing}")
        extra = [n for n in self.positions if n not in NODE_NAMES]
        if extra:
            raise ScenarioError(f"positions has unknown nodes: {extra}")
        for name, least in (("n_s", 1), ("n_p", 1), ("n_ris", 0)):
            value = getattr(self, name)
            if value < least:
                raise ScenarioError(f"{name} must be >= {least}, got {value}")
        if not (self.gamma_w > 0):
            raise ScenarioError(f"gamma_w must be > 0, got {self.gamma_w}")
        if self.noise_w <= 0:
            raise ScenarioError(f"noise_dbm {self.noise_dbm} gives no noise power")
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
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    def replace(self, **kwargs) -> "Scenario":
        return dataclasses.replace(self, **kwargs)


def elevation_deg(src: NodePosition, dst: NodePosition) -> float:
    """Elevation of dst seen from src; negative when dst lies below src."""
    horiz = math.hypot(dst.x - src.x, dst.y - src.y)
    return math.degrees(math.atan2(dst.z - src.z, horiz))


# -- JSON loading ---------------------------------------------------------

def _from_dict(cls, doc, where: str, error=ScenarioError):
    """cls(**doc) for a JSON object whose keys are cls's fields, every
    field without a default among them; a violation raises ``error``."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"unknown keys in {where}: {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{where} missing required keys {missing}")
    return cls(**doc)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    doc = dict(doc)
    raw_pos = doc.get("positions")
    if not isinstance(raw_pos, dict):
        raise ScenarioError("positions must be an object mapping node -> {x,y,z}")
    doc["positions"] = {name: _from_dict(NodePosition, coords,
                                         f"positions.{name}")
                        for name, coords in raw_pos.items()}
    doc["pattern"] = _from_dict(PatternParams, doc.get("pattern", {}),
                                "pattern")
    doc["channel"] = _from_dict(ChannelParams, doc.get("channel", {}),
                                "channel")
    return _from_dict(Scenario, doc, "scenario")


def scenario_to_dict(scenario: Scenario) -> dict:
    return dataclasses.asdict(scenario)


def apply_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    """Deep-merge a partial scenario document and re-validate."""
    def merge(doc, part):
        for key, value in part.items():
            both = isinstance(value, dict) and isinstance(doc.get(key), dict)
            doc[key] = merge(doc[key], value) if both else value
        return doc
    return scenario_from_dict(merge(scenario_to_dict(scenario), overrides))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def paper_default() -> Scenario:
    """The bundled default scenario used throughout the experiment sweeps."""
    text = resources.files("ris_crn.data").joinpath("paper_default.json").read_text()
    return scenario_from_dict(json.loads(text))
