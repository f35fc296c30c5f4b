"""The 14 compression methods of Tables 4 and 5 — see DESIGN.md.

Use :func:`repro.codecs.base.load_codec` to get a codec by its Table-4
column name; ``base.METHODS`` names each one's class and Table-1 row.
"""
