"""Session setup shared by the test modules."""

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # hypothesis caches the constants of local source files while collecting
    # a property test, example database or not; keep that cache in pytest's
    # cache directory instead of a .hypothesis/ directory in the working tree
    if config.pluginmanager.has_plugin("cacheprovider"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
