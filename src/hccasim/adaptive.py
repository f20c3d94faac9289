"""Kept only because perfbench/tracer.py imports it as a layer; engine.py holds the report rule."""
