fn main() -> std::process::ExitCode {
    pp_bench::run::main_as("e15_silence")
}
