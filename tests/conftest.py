from hypothesis import settings

# Every run draws the same examples (seeded from each test's own code) and
# replays nothing from a local example database; tests keep their own
# max_examples.
settings.register_profile("skorotail", derandomize=True, deadline=None)
settings.load_profile("skorotail")
