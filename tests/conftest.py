from hypothesis import settings

# Every run draws the same examples and writes no example database, so two
# runs of the suite test the same inputs and leave nothing in the checkout.
settings.register_profile("framepress", derandomize=True, database=None)
settings.load_profile("framepress")
