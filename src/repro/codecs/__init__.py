"""The 14 compression methods of Tables 4 and 5 — see DESIGN.md.

Use :func:`repro.codecs.base.load_codec` to get a codec by its Table-4
column name; it imports every codec module so registration is complete
even inside fresh Spark executor workers.
"""
