import run

run.import_program()
