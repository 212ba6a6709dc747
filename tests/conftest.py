from hypothesis import settings

settings.register_profile("dtnzeta", database=None, max_examples=10, deadline=None,
                          print_blob=True)
settings.load_profile("dtnzeta")
