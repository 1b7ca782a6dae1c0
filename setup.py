from setuptools import Extension, setup

# optional: without a C compiler the package installs with the pure-Python engine
setup(ext_modules=[Extension("arithgroups._closure", ["src/arithgroups/_closure.c"],
                             extra_compile_args=["-O3"], optional=True)])
