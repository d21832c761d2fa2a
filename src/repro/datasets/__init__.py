"""`repro.datasets` — offline synthetic datasets.

MNIST/GTSRB stand-ins rendered procedurally (no network access in the
reproduction environment) and a correlated sensor-field generator for the
paper's native WSN scenario.  See the README's "Substitutions" section
for the rationale.
"""

from .digits import (
    DigitConfig,
    flatten_images,
    generate_digits,
    glyph_bitmap,
    render_digit,
    unflatten_images,
)
from .digits import IMAGE_SIZE as DIGIT_IMAGE_SIZE
from .digits import NUM_CLASSES as DIGIT_CLASSES
from .sensing import (
    FieldRegime,
    SensorField,
    denormalize_rounds,
    normalized_rounds,
)
from .traffic_signs import (
    SignConfig,
    class_table,
    generate_signs,
    render_sign,
)
from .traffic_signs import IMAGE_SIZE as SIGN_IMAGE_SIZE
from .traffic_signs import NUM_CLASSES as SIGN_CLASSES

__all__ = [
    "DigitConfig", "flatten_images", "generate_digits", "glyph_bitmap",
    "render_digit", "unflatten_images", "DIGIT_IMAGE_SIZE", "DIGIT_CLASSES",
    "FieldRegime", "SensorField", "denormalize_rounds", "normalized_rounds",
    "SignConfig", "class_table", "generate_signs", "render_sign",
    "SIGN_IMAGE_SIZE", "SIGN_CLASSES",
]
