"""Scenario files: flat `key = value` text with dotted section names.

Every key is `<section>.<field>`. `_SECTIONS` lists all keys once, in file
order, and the parser, `build_scenario` and the writer all walk it. A section
names the dataclass inside `Scenario` that holds its fields (`tanks.force` is
`tank_force`); `tanks`, `plant` and `run` hold fields of `Scenario` itself.
Only two keys differ from their field: `camera.fov_deg` (fov_h, fov_v in
degrees) and `perception.angle_thresh_deg` (angle_thresh in degrees). A
key's type is that of its default in `Scenario()`: bool, int, str, float or
a comma-separated float vector, and every float must be finite. Range checks
live in the dataclass that owns the field (the tank checks in `Scenario`,
which knows each tank's section) and name the dotted key; unknown keys and
unparsable values are reported by name too.

The same writer produces the resolved copy stored next to each run's
telemetry, so a run can always be reproduced from its output directory.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .runtime import Scenario


class ConfigError(ValueError):
    pass


# (section, Scenario field holding its dataclass or None for Scenario itself, keys)
_SECTIONS = (
    ("surface", "surface", "amplitude period phase offset mu k_n d_n"),
    ("camera", "camera", "fov_deg cols rows noise_sigma range_min range_max mount_offset"),
    ("perception", "perception", "k angle_thresh_deg min_segment_size"),
    ("monitor", "monitor", "alpha xi gamma c_margin rho_min delta_c rho_trigger"),
    ("controller", "controller", "k_max damping_coeffs k_p k_i integral_limit filter_time"),
    ("tanks.force", "tank_force", "s0 s_upper s_lower ramp_eps"),
    ("tanks.impedance", "tank_impedance", "s0 s_upper s_lower ramp_eps"),
    ("tanks", None, "valves_forced_open"),
    ("policy", "policy", "amplitude frequency drift force_z"),
    ("plant", None, "mass tool_radius"),
    ("run", None, "duration dt_control dt_perception seed start_x start_y start_height start_tilt_deg"),
)


def _degrees(rad) -> float:
    """Degrees that convert back to exactly `rad` (plain rad2deg is an ulp off on ~5% of angles)."""
    deg = float(np.rad2deg(rad))
    for d in (deg, np.nextafter(deg, -np.inf), np.nextafter(deg, np.inf)):
        if np.deg2rad(d) == rad:
            return float(d)
    return deg


# keys whose fields have another name or unit: key -> (fields, file-to-field, field-to-file)
_RENAMED = {
    "fov_deg": (("fov_h", "fov_v"), np.deg2rad, _degrees),
    "angle_thresh_deg": (("angle_thresh",), np.deg2rad, _degrees),
}


def _get(sc: Scenario, part: str | None, name: str):
    obj = getattr(sc, part) if part else sc
    if name not in _RENAMED:
        return getattr(obj, name)
    fields, _, to_file = _RENAMED[name]
    values = tuple(to_file(getattr(obj, f)) for f in fields)
    return values if len(values) > 1 else values[0]


_DEFAULT = Scenario()
# dotted key -> (Scenario part, key within its section, default value), in file order
_KEYS = {
    f"{section}.{name}": (part, name, _get(_DEFAULT, part, name))
    for section, part, names in _SECTIONS
    for name in names.split()
}


def _cast(text: str, default):
    if isinstance(default, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if isinstance(default, (int, str)):
        return type(default)(text)
    if isinstance(default, tuple):
        value = tuple(float(p) for p in text.split(","))
        if len(value) != len(default):
            raise ValueError(f"expected {len(default)} comma-separated values, got {len(value)}")
    else:
        value = float(text)
    if not np.isfinite(value).all():
        raise ValueError(f"expected finite numbers, got {text!r}")
    return value


def _format(value, default) -> str:
    if isinstance(default, bool):
        return str(bool(value)).lower()
    if isinstance(default, tuple):
        return ",".join(repr(float(x)) for x in value)
    if isinstance(default, float):
        return repr(float(value))
    return str(value)


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _cast(val.strip(), _KEYS[key][2])
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return build_scenario(values)


def parse_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text, source=str(path))


def build_scenario(values: dict) -> Scenario:
    """Assemble a Scenario from a flat key->value dict (defaults fill gaps)."""
    changes: dict = {}  # Scenario part -> {field: value}
    for key, value in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        part, name, _ = _KEYS[key]
        if name in _RENAMED:
            fields, to_field, _ = _RENAMED[name]
            items = value if len(fields) > 1 else (value,)
            changes.setdefault(part, {}).update((f, float(to_field(v))) for f, v in zip(fields, items))
        else:
            changes.setdefault(part, {})[name] = value
    try:
        parts = {part: replace(getattr(_DEFAULT, part), **kw) for part, kw in changes.items() if part}
        return replace(_DEFAULT, **changes.get(None, {}), **parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def scenario_to_text(sc: Scenario) -> str:
    """Serialize the resolved scenario back to config text."""
    lines = ["# resolved scenario"]
    for key, (part, name, default) in _KEYS.items():
        lines.append(f"{key} = {_format(_get(sc, part, name), default)}")
    return "\n".join(lines) + "\n"


def with_overrides(sc: Scenario, seed: int | None = None, duration: float | None = None) -> Scenario:
    changes = {k: v for k, v in (("seed", seed), ("duration", duration)) if v is not None}
    try:
        return replace(sc, **changes) if changes else sc
    except ValueError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc
