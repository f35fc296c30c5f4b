"""The 14 studied compression methods (plus Dzip-lite) — see DESIGN.md.

Use :func:`repro.codecs.base.load_codec` to get a codec by its Table-4
column name; it imports every codec module so registration is complete
even inside fresh Spark executor workers.
"""
from repro.codecs.base import (  # noqa: F401
    Codec,
    CodecFailure,
    GPU_METHODS,
    TABLE4_METHODS,
    TABLE10_METHODS,
    all_methods,
    load_codec,
)
