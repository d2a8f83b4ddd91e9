"""UTF-8 key=value configuration files ('#' comments, blank lines allowed).

One flat key set configures the CLI and is embedded in every checkpoint.
``KEYS`` is the only description of a key: ``key -> (section, field,
parser)``, where the section names the dataclass it sets (``model``,
``backbone``, ``train`` or ``augment``). ``configs_from_dict`` parses with it
and rejects unknown keys so typos fail loudly; ``configs_to_dict`` formats
with it. ``blur_sigma_lo``/``blur_sigma_hi`` are the two ends of
``AugmentConfig.blur_sigma``. The README's table documents every key.
"""

from __future__ import annotations

from .backbone import BackboneConfig
from .data import AugmentConfig
from .errors import ConfigurationError
from .model import ModelConfig
from .train import TrainConfig


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def format_config(values: dict[str, str]) -> str:
    return "".join(f"{k}={values[k]}\n" for k in sorted(values))


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _int_list(value: str) -> tuple[int, ...]:
    """Comma-joined integers; an empty value is the empty list, and an
    empty item, as in ``2,,3`` or ``2,3,``, is an error."""
    if not value.strip():
        return ()
    items = value.split(",")
    if not all(v.strip() for v in items):
        raise ValueError("empty list item")
    return tuple(int(v) for v in items)


KEYS = {
    "image_size": ("model", "image_size", int),
    "resize_size": ("model", "resize_size", int),
    "upsample": ("model", "upsample_factor", int),
    "g": ("model", "region_grid", int),
    "spp_levels": ("model", "spp_levels", _int_list),
    "use_regions": ("model", "use_regions", _bool),
    "use_spp": ("model", "use_spp", _bool),
    "gcn_layers": ("model", "gcn_layers", int),
    "gcn_width": ("model", "gcn_width", lambda v: None if int(v) == 0 else int(v)),
    "dropout": ("model", "dropout", float),
    "head_norm": ("model", "head_norm", str),
    "use_rank1": ("model", "use_rank1", _bool),
    "backbone_channels": ("backbone", "channels", _int_list),
    "kernel": ("backbone", "kernel_size", int),
    "pool_stride": ("backbone", "pool_stride", int),
    "out_channels": ("backbone", "out_channels", int),
    "lr": ("train", "lr", float),
    "batch": ("train", "batch_size", int),
    "epochs": ("train", "epochs", int),
    "seed": ("train", "seed", int),
    "lr_decay_epoch": ("train", "lr_decay_epoch", int),
    "lr_decay_factor": ("train", "lr_decay_factor", float),
    "rotation": ("augment", "rotation_deg", float),
    "scale": ("augment", "scale_delta", float),
    "flip_p": ("augment", "flip_p", float),
    "blur_p": ("augment", "blur_p", float),
    "blur_sigma_lo": ("augment", "blur_sigma_lo", float),
    "blur_sigma_hi": ("augment", "blur_sigma_hi", float),
}


def configs_from_dict(values: dict[str, str]) -> tuple[ModelConfig, TrainConfig]:
    """Apply flat key=value settings onto the default configs."""
    updates: dict[str, dict] = {"model": {}, "backbone": {}, "train": {}, "augment": {}}
    for key, value in values.items():
        if key not in KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        section, field_name, parser = KEYS[key]
        try:
            updates[section][field_name] = parser(value)
        except ValueError as err:
            raise ConfigurationError(f"bad value for {key!r}: {value!r} ({err})") from err
    augment = updates["augment"]
    lo, hi = AugmentConfig().blur_sigma
    augment["blur_sigma"] = (augment.pop("blur_sigma_lo", lo), augment.pop("blur_sigma_hi", hi))
    model = ModelConfig(backbone=BackboneConfig(**updates["backbone"]), **updates["model"])
    train = TrainConfig(augment=AugmentConfig(**augment), **updates["train"])
    model.validate()
    train.validate()
    return model, train


def _format(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if value is None:  # gcn_width: uniform width
        return "0"
    return repr(value) if isinstance(value, float) else str(value)


def configs_to_dict(model: ModelConfig, train: TrainConfig) -> dict[str, str]:
    lo, hi = train.augment.blur_sigma
    fields = {"model": vars(model), "backbone": vars(model.backbone), "train": vars(train),
              "augment": {**vars(train.augment), "blur_sigma_lo": lo, "blur_sigma_hi": hi}}
    return {key: _format(fields[section][name]) for key, (section, name, _) in KEYS.items()}


def load_config_file(path) -> tuple[ModelConfig, TrainConfig]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    return configs_from_dict(parse_config_text(text))
