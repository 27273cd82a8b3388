"""Reference implementations used as correctness oracles in tests."""

from repro.reference.naive_join import naive_multiway_join, naive_window_join

__all__ = ["naive_multiway_join", "naive_window_join"]
