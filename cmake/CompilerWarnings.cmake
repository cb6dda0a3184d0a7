# Defines gstg::warnings, an INTERFACE target carrying the project-wide
# warning flags. Linked PRIVATE by every gstg target so the flags never leak
# into fetched third-party builds (googletest compiles with its own
# settings).
add_library(gstg_warnings INTERFACE)
add_library(gstg::warnings ALIAS gstg_warnings)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(gstg_warnings INTERFACE
    -Wall
    -Wextra
    -Wshadow
    -Wnon-virtual-dtor
    -Wcast-align
    -Wunused
    -Woverloaded-virtual
    -Wnull-dereference
    -Wdouble-promotion
    -Wimplicit-fallthrough)
  if(GSTG_WARNINGS_AS_ERRORS)
    target_compile_options(gstg_warnings INTERFACE -Werror)
  endif()
elseif(MSVC)
  target_compile_options(gstg_warnings INTERFACE /W4 /permissive-)
  if(GSTG_WARNINGS_AS_ERRORS)
    target_compile_options(gstg_warnings INTERFACE /WX)
  endif()
endif()
